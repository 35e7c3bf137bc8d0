package cluster

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/paper"
)

// testGrid is the explore package's 144-candidate fixture: a
// six-dimensional grid around the paper's 1-D PDF study.
func testGrid() explore.Grid {
	return explore.Grid{
		Base:            paper.PDF1DParams(),
		Clocks:          paper.ClocksHz,
		ThroughputProcs: []float64{10, 20, 40},
		Alphas:          []float64{0.16, 0.37},
		BlockSizes:      []int64{512, 2048},
		Devices:         []int{1, 4},
		Topology:        core.IndependentChannels,
	}
}

// shardResults evaluates the grid in shards of size step through
// explore.Run — exactly what a remote worker does for a sharded
// request — and returns their ShardResults.
func shardResults(t *testing.T, g explore.Grid, cons explore.Constraints, obj explore.Objective, k int, step uint64) []ShardResult {
	t.Helper()
	size := g.Size()
	var out []ShardResult
	for lo := uint64(0); lo < size; lo += step {
		hi := lo + step
		if hi > size {
			hi = size
		}
		res, err := explore.Run(g, explore.Options{
			Workers: 1, TopK: k, Objective: obj, Constraints: cons,
			IndexLo: lo, IndexHi: hi, Frontier: true,
		})
		if err != nil {
			t.Fatalf("shard [%d,%d): %v", lo, hi, err)
		}
		sr := ShardResult{Lo: lo, Hi: hi, Evaluated: res.Evaluated, Feasible: res.Feasible}
		for _, c := range res.Top {
			sr.Top = append(sr.Top, c.Index)
		}
		for _, c := range res.Frontier {
			sr.Frontier = append(sr.Frontier, c.Index)
		}
		out = append(out, sr)
	}
	return out
}

// TestMergeMatchesSingleNode: folding per-shard results recovers the
// single-node result exactly, across objectives, shard sizes and K.
func TestMergeMatchesSingleNode(t *testing.T) {
	g := testGrid()
	cons := explore.Constraints{MinSpeedup: 1}
	for _, obj := range []explore.Objective{explore.MaxSpeedup, explore.MinTRC, explore.MinCost} {
		for _, step := range []uint64{1, 7, 16, 50, 144, 1000} {
			for _, k := range []int{1, 5, 10} {
				want, err := explore.Run(g, explore.Options{
					Workers: 1, TopK: k, Objective: obj, Constraints: cons, Frontier: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				m := newMerger(g, cons, obj, k, true)
				for _, sr := range shardResults(t, g, cons, obj, k, step) {
					if !m.add(sr) {
						t.Fatalf("obj=%v step=%d: add rejected a distinct shard", obj, step)
					}
				}
				got, err := m.result(g.Size())
				if err != nil {
					t.Fatalf("obj=%v step=%d k=%d: %v", obj, step, k, err)
				}
				if !reflect.DeepEqual(got.Top, want.Top) {
					t.Errorf("obj=%v step=%d k=%d: merged top diverges from single-node", obj, step, k)
				}
				if !reflect.DeepEqual(got.Frontier, want.Frontier) {
					t.Errorf("obj=%v step=%d k=%d: merged frontier diverges from single-node", obj, step, k)
				}
				if got.Evaluated != want.Evaluated || got.Feasible != want.Feasible {
					t.Errorf("obj=%v step=%d: counts (%d, %d), want (%d, %d)",
						obj, step, got.Evaluated, got.Feasible, want.Evaluated, want.Feasible)
				}
			}
		}
	}
}

// TestMergeOrderIndependence is the determinism property test: under
// adversarial arrival orders — random permutations with re-dispatched
// shards completing a second (or third) time at random points — the
// merged result never changes. A fleet cannot control completion
// order, so the merge must not see it.
func TestMergeOrderIndependence(t *testing.T) {
	g := testGrid()
	cons := explore.Constraints{}
	obj := explore.MaxSpeedup
	const k = 10
	shards := shardResults(t, g, cons, obj, k, 13) // ragged final shard

	ref := func() explore.Result {
		m := newMerger(g, cons, obj, k, true)
		for _, sr := range shards {
			m.add(sr)
		}
		res, err := m.result(g.Size())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		// An adversarial arrival sequence: every shard at least once,
		// plus random duplicate completions, in random order.
		arrivals := append([]ShardResult(nil), shards...)
		for i := 0; i < rnd.Intn(len(shards)); i++ {
			arrivals = append(arrivals, shards[rnd.Intn(len(shards))])
		}
		rnd.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })

		m := newMerger(g, cons, obj, k, true)
		merged := map[uint64]bool{}
		for _, sr := range arrivals {
			if got, want := m.add(sr), !merged[sr.Lo]; got != want {
				t.Fatalf("trial %d: add(shard %d) = %v, want %v", trial, sr.Lo, got, want)
			}
			merged[sr.Lo] = true
		}
		res, err := m.result(g.Size())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("trial %d: merged result depends on arrival order", trial)
		}
	}
}

// TestMergeIncompleteCoverage: a merge over shards that do not cover
// the whole span errors instead of returning a silently partial
// result.
func TestMergeIncompleteCoverage(t *testing.T) {
	g := testGrid()
	shards := shardResults(t, g, explore.Constraints{}, explore.MaxSpeedup, 10, 16)
	m := newMerger(g, explore.Constraints{}, explore.MaxSpeedup, 10, false)
	for _, sr := range shards[:len(shards)-1] {
		m.add(sr)
	}
	if _, err := m.result(g.Size()); err == nil || !strings.Contains(err.Error(), "merged shards cover") {
		t.Fatalf("result with a missing shard = %v, want coverage error", err)
	}
}
