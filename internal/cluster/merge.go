package cluster

import (
	"fmt"
	"sort"

	"github.com/chrec/rat/internal/explore"
)

// ShardResult is one shard's contribution to the merge: the candidate
// index range it covered and the outcome as candidate indices. The
// wire carries indices, not candidate numbers, by design: the JSON
// form renders clocks in MHz — a division whose last bit need not
// survive the round trip — so the merger re-derives every surviving
// candidate's exact numbers locally on the compiled grid
// (explore.Compiled.EvalIndices). The merged result is then bit-for-
// bit what a single-node explore.Run would have produced.
type ShardResult struct {
	// Lo, Hi is the candidate index range [Lo, Hi) the shard covered.
	Lo, Hi uint64
	// Evaluated and Feasible are the shard's candidate counts.
	Evaluated uint64
	Feasible  uint64
	// Top are the shard's best candidate indices under the run's
	// objective (at most K of them).
	Top []uint64
	// Frontier are the shard's Pareto-optimal candidate indices.
	Frontier []uint64
}

// merger folds shard results into a single-node-identical
// explore.Result. It is a pure accumulator: the outcome depends only
// on the set of distinct shards folded in — arrival order and
// duplicate completions (a straggler's re-dispatched shard finishing
// twice) cannot change it. This is the determinism invariant of
// docs/DISTRIBUTED.md, pinned by the order-independence property
// tests in merge_test.go.
//
// Correctness of merging per-shard selections rests on two set
// inclusions. Top-K: each of the global best K lives in some shard,
// where at most K-1 better candidates can precede it, so it is in
// that shard's top K — the union of shard top-Ks contains the global
// top K, and re-ranking by the same total order recovers it.
// Frontier: a globally non-dominated candidate is non-dominated
// within its shard, so the union of shard frontiers contains the
// global frontier, and one more Pareto pass removes the cross-shard
// dominated remainder.
type merger struct {
	grid     *explore.Compiled
	cons     explore.Constraints
	obj      explore.Objective
	k        int
	frontier bool

	// seen keys merged shards by Lo: shards partition the index
	// range, so Lo identifies one. A duplicate completion is dropped
	// here, whatever worker it came from.
	seen      map[uint64]bool
	evaluated uint64
	feasible  uint64
	topIdx    map[uint64]bool
	frontIdx  map[uint64]bool
}

func newMerger(grid *explore.Compiled, cons explore.Constraints, obj explore.Objective, k int, frontier bool) *merger {
	return &merger{
		grid: grid, cons: cons, obj: obj, k: k, frontier: frontier,
		seen:   map[uint64]bool{},
		topIdx: map[uint64]bool{}, frontIdx: map[uint64]bool{},
	}
}

// add folds one shard completion in. It reports false — and changes
// nothing — when that shard was already merged (the duplicate-
// completion path), so a shard completing twice cannot double-count
// candidates: explore.Frontier keeps equal objective vectors, and a
// duplicated candidate would corrupt both sets.
func (m *merger) add(sr ShardResult) bool {
	if m.seen[sr.Lo] {
		return false
	}
	m.seen[sr.Lo] = true
	m.evaluated += sr.Evaluated
	m.feasible += sr.Feasible
	for _, idx := range sr.Top {
		m.topIdx[idx] = true
	}
	for _, idx := range sr.Frontier {
		m.frontIdx[idx] = true
	}
	return true
}

// result assembles the merged explore.Result. want is the candidate
// count the shards must cover in total (the span of the explored
// index range); a mismatch means lost or overlapping shards and is an
// error, never a silently partial result.
func (m *merger) result(want uint64) (explore.Result, error) {
	if m.evaluated != want {
		return explore.Result{}, fmt.Errorf("cluster: merged shards cover %d candidates, want %d", m.evaluated, want)
	}
	res := explore.Result{Evaluated: m.evaluated, Feasible: m.feasible}
	top, err := m.eval(m.topIdx, "top")
	if err != nil {
		return explore.Result{}, err
	}
	res.Top = explore.SelectTop(m.obj, m.k, top)
	if m.frontier {
		front, err := m.eval(m.frontIdx, "frontier")
		if err != nil {
			return explore.Result{}, err
		}
		res.Frontier = explore.Frontier(front)
	}
	return res, nil
}

// eval re-derives the exact candidates behind a merged index set.
func (m *merger) eval(set map[uint64]bool, what string) ([]explore.Candidate, error) {
	idxs := make([]uint64, 0, len(set))
	for idx := range set {
		idxs = append(idxs, idx)
	}
	// EvalIndices sorts internally, but hand it a sorted slice anyway
	// so no map iteration order ever leaves this function.
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	cands, err := m.grid.EvalIndices(m.cons, idxs)
	if err != nil {
		return nil, fmt.Errorf("cluster: re-evaluating merged %s set: %w", what, err)
	}
	if len(cands) != len(idxs) {
		// A worker returned a candidate that fails the constraints
		// locally — grids or constraints diverged across the fleet.
		return nil, fmt.Errorf("cluster: %d of %d merged %s candidates fail the constraints locally (fleet grid mismatch?)", len(idxs)-len(cands), len(idxs), what)
	}
	return cands, nil
}
