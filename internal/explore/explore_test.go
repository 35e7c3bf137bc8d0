package explore_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/telemetry"
)

// testGrid is a small six-dimensional grid around the 1-D PDF study:
// 3 clocks x 3 tp x 2 alphas x 2 blocks x 2 devices x 2 bufferings =
// 144 candidates.
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

// TestGridSizeAndAt: the grid enumerates the full Cartesian product and
// At round-trips every index into a valid worksheet.
func TestGridSizeAndAt(t *testing.T) {
	g := testGrid()
	want := uint64(3 * 3 * 2 * 2 * 2 * 2)
	if got := g.Size(); got != want {
		t.Fatalf("Size() = %d, want %d", got, want)
	}
	seen := map[[8]float64]bool{}
	for i := uint64(0); i < want; i++ {
		p, mc, buf, err := g.At(i)
		if err != nil {
			t.Fatalf("At(%d): %v", i, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("At(%d) produced invalid worksheet: %v", i, err)
		}
		key := [8]float64{p.Comp.ClockHz, p.Comp.ThroughputProc, p.Comm.AlphaWrite,
			float64(p.Dataset.ElementsIn), float64(p.Soft.Iterations),
			float64(mc.Devices), float64(mc.Topology), float64(buf)}
		if seen[key] {
			t.Fatalf("At(%d) repeats a design point: %+v", i, key)
		}
		seen[key] = true
	}
	if _, _, _, err := g.At(want); !errors.Is(err, core.ErrInvalidParameters) {
		t.Errorf("At(size) = %v, want out-of-range error", err)
	}
}

// TestGridConservesWork: resizing the buffered block rescales the
// iteration count so the total element count is conserved (to ceiling
// granularity).
func TestGridConservesWork(t *testing.T) {
	g := explore.Grid{Base: paper.PDF1DParams(), BlockSizes: []int64{256, 512, 1024, 4096}}
	base := g.Base
	total := base.Dataset.ElementsIn * base.Soft.Iterations
	for i := uint64(0); i < g.Size(); i++ {
		p, _, _, err := g.At(i)
		if err != nil {
			t.Fatal(err)
		}
		covered := p.Dataset.ElementsIn * p.Soft.Iterations
		if covered < total || covered-total >= p.Dataset.ElementsIn {
			t.Errorf("block %d covers %d elements, want ceil to >= %d", p.Dataset.ElementsIn, covered, total)
		}
	}
}

// TestGridValidation: malformed grids are rejected with wrapped
// ErrInvalidParameters.
func TestGridValidation(t *testing.T) {
	base := paper.PDF1DParams()
	bad := base
	bad.Comp.ClockHz = 0
	// Every field validates, but t_write overflows to +Inf.
	overflow := base
	overflow.Dataset.BytesPerElement = 1e300
	overflow.Dataset.ElementsIn = 1 << 40
	heavy := base // fine at its own block size, not at 2^40 elements
	heavy.Dataset.BytesPerElement = 1e300
	hugeTotal := base
	hugeTotal.Dataset.ElementsIn = 1 << 40
	hugeTotal.Soft.Iterations = 1 << 40
	wide := base
	wide.Dataset.ElementsOut = wide.Dataset.ElementsIn
	cases := map[string]explore.Grid{
		"invalid base":      {Base: bad},
		"overflowing base":  {Base: overflow},
		"overflowing block": {Base: heavy, BlockSizes: []int64{512, 1 << 40}},
		"tiny clock":        {Base: base, Clocks: []float64{1e-320}, Bufferings: []core.Buffering{core.DoubleBuffered}},
		"total overflow":    {Base: hugeTotal},
		"output overflow":   {Base: wide, BlockSizes: []int64{math.MaxInt64}},
		"duplicate clock":   {Base: base, Clocks: []float64{1e8, 1e8}},
		"nan clock":         {Base: base, Clocks: []float64{math.NaN()}},
		"negative clock":    {Base: base, Clocks: []float64{-1}},
		"zero tp":           {Base: base, ThroughputProcs: []float64{0}},
		"alpha above 1":     {Base: base, Alphas: []float64{1.5}},
		"duplicate alpha":   {Base: base, Alphas: []float64{0.5, 0.5}},
		"zero block":        {Base: base, BlockSizes: []int64{0}},
		"duplicate block":   {Base: base, BlockSizes: []int64{64, 64}},
		"zero devices":      {Base: base, Devices: []int{0}},
		"duplicate devices": {Base: base, Devices: []int{2, 2}},
		"bad topology":      {Base: base, Topology: core.Topology(9)},
		"bad buffering":     {Base: base, Bufferings: []core.Buffering{core.Buffering(7)}},
		"duplicate buffering": {Base: base,
			Bufferings: []core.Buffering{core.SingleBuffered, core.SingleBuffered}},
	}
	for name, g := range cases {
		if err := g.Validate(); !errors.Is(err, core.ErrInvalidParameters) {
			t.Errorf("%s: Validate() = %v, want wrapped ErrInvalidParameters", name, err)
		}
		if g.Size() != 0 {
			t.Errorf("%s: Size() = %d on invalid grid, want 0", name, g.Size())
		}
		if _, err := explore.Run(g, explore.Options{Workers: 1}); !errors.Is(err, core.ErrInvalidParameters) {
			t.Errorf("%s: Run() = %v, want wrapped ErrInvalidParameters", name, err)
		}
	}
}

// TestGridOverflowNamesQuantity: an overflowing grid is rejected with
// an error naming the quantity and the block size at which it
// overflows, whichever buffering the grid evaluates.
func TestGridOverflowNamesQuantity(t *testing.T) {
	p := paper.PDF1DParams()
	p.Dataset.BytesPerElement = 1e300
	p.Dataset.ElementsIn = 1 << 40
	for _, bufs := range [][]core.Buffering{nil, {core.SingleBuffered}, {core.DoubleBuffered}} {
		err := explore.Grid{Base: p, Bufferings: bufs}.Validate()
		if err == nil || !strings.Contains(err.Error(), "TComm") || !strings.Contains(err.Error(), "1099511627776") {
			t.Errorf("bufferings %v: Validate() = %v, want an error naming TComm and block size 1099511627776", bufs, err)
		}
	}
}

// TestExploreMatchesScalarPredict: every candidate's numbers are
// bit-for-bit the scalar core.Predict / core.PredictMulti results for
// the worksheet Grid.At materializes — across all three paper case
// studies.
func TestExploreMatchesScalarPredict(t *testing.T) {
	for _, cs := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		g := testGrid()
		g.Base = paper.Params(cs)
		res, err := explore.Run(g, explore.Options{Workers: 2, TopK: int(g.Size())})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluated != g.Size() || uint64(len(res.Top)) != g.Size() {
			t.Fatalf("%s: evaluated %d, kept %d, want %d", cs, res.Evaluated, len(res.Top), g.Size())
		}
		for _, c := range res.Top {
			p, mc, buf, err := g.At(c.Index)
			if err != nil {
				t.Fatal(err)
			}
			mp, err := core.PredictMulti(p, mc)
			if err != nil {
				t.Fatal(err)
			}
			wantTRC, wantSp := mp.TRCSingle, mp.SpeedupSingle
			if buf == core.DoubleBuffered {
				wantTRC, wantSp = mp.TRCDouble, mp.SpeedupDouble
			}
			if c.TComm != mp.TComm || c.TComp != mp.TComp || c.TRC != wantTRC || c.Speedup != wantSp {
				t.Errorf("%s candidate %d: engine (%v %v %v %v) != scalar (%v %v %v %v)",
					cs, c.Index, c.TComm, c.TComp, c.TRC, c.Speedup,
					mp.TComm, mp.TComp, wantTRC, wantSp)
			}
			if mc.Devices == 1 {
				pr := core.MustPredict(p)
				wantUC, wantUM := pr.UtilComp(buf), pr.UtilComm(buf)
				if c.UtilComp != wantUC || c.UtilComm != wantUM {
					t.Errorf("%s candidate %d: utils (%v %v) != scalar (%v %v)",
						cs, c.Index, c.UtilComp, c.UtilComm, wantUC, wantUM)
				}
			}
		}
	}
}

// TestExploreDeterministicAcrossWorkers: the full Result — top-K order,
// frontier, counts — is identical for 1, 2, 3, 7 and 16 workers.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	g := testGrid()
	for _, obj := range []explore.Objective{explore.MaxSpeedup, explore.MinTRC, explore.MinCost} {
		opts := explore.Options{Workers: 1, TopK: 12, Objective: obj,
			Constraints: explore.Constraints{MinSpeedup: 1}, Frontier: true}
		want, err := explore.Run(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 7, 16} {
			opts.Workers = w
			got, err := explore.Run(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Top, want.Top) {
				t.Errorf("%v: top-K with %d workers differs from 1 worker", obj, w)
			}
			if !reflect.DeepEqual(got.Frontier, want.Frontier) {
				t.Errorf("%v: frontier with %d workers differs from 1 worker", obj, w)
			}
			if got.Evaluated != want.Evaluated || got.Feasible != want.Feasible {
				t.Errorf("%v: counts with %d workers: (%d, %d) != (%d, %d)",
					obj, w, got.Evaluated, got.Feasible, want.Evaluated, want.Feasible)
			}
		}
	}
}

// TestExploreDefaultWorkersFollowGOMAXPROCS: Workers 0 sizes the pool
// by the CPUs the process may use at once, not by the host's CPUs.
func TestExploreDefaultWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res, err := explore.Run(testGrid(), explore.Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 {
		t.Errorf("Workers 0 under GOMAXPROCS(1) ran %d workers, want 1", res.Workers)
	}
}

// TestExploreTopKOrdering: Top is sorted best-first under the objective
// and is exactly the K global best (cross-checked against a full sort).
func TestExploreTopKOrdering(t *testing.T) {
	g := testGrid()
	full, err := explore.Run(g, explore.Options{Workers: 3, TopK: int(g.Size())})
	if err != nil {
		t.Fatal(err)
	}
	const k = 7
	res, err := explore.Run(g, explore.Options{Workers: 3, TopK: k})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != k {
		t.Fatalf("len(Top) = %d, want %d", len(res.Top), k)
	}
	if !reflect.DeepEqual(res.Top, full.Top[:k]) {
		t.Error("streaming top-K differs from the prefix of the full sort")
	}
	for i := 1; i < len(res.Top); i++ {
		if res.Top[i-1].Speedup < res.Top[i].Speedup {
			t.Errorf("Top[%d].Speedup %v < Top[%d].Speedup %v", i-1, res.Top[i-1].Speedup, i, res.Top[i].Speedup)
		}
	}
}

// TestExploreConstraints: infeasible candidates are excluded from the
// ranking, the frontier and the feasible count.
func TestExploreConstraints(t *testing.T) {
	g := testGrid()
	cons := explore.Constraints{MinSpeedup: 5, MaxDevices: 1, MaxUtilComm: 0.5}
	res, err := explore.Run(g, explore.Options{Workers: 2, TopK: 1000, Constraints: cons, Frontier: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible == 0 || res.Feasible >= res.Evaluated {
		t.Fatalf("Feasible = %d of %d, want a strict subset", res.Feasible, res.Evaluated)
	}
	if uint64(len(res.Top)) != res.Feasible {
		t.Errorf("len(Top) = %d, want all %d feasible", len(res.Top), res.Feasible)
	}
	for _, c := range append(append([]explore.Candidate{}, res.Top...), res.Frontier...) {
		if c.Speedup < 5 || c.Devices > 1 || c.UtilComm > 0.5 {
			t.Errorf("infeasible candidate survived: %+v", c)
		}
	}
}

// TestExploreMinCost: with a speedup floor, MinCost surfaces the
// cheapest configuration that still meets the target.
func TestExploreMinCost(t *testing.T) {
	g := testGrid()
	res, err := explore.Run(g, explore.Options{
		Workers: 2, TopK: 1,
		Objective:   explore.MinCost,
		Constraints: explore.Constraints{MinSpeedup: 7.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 1 {
		t.Fatalf("no feasible candidate for the target speedup")
	}
	best := res.Top[0]
	if best.Speedup < 7.8 {
		t.Fatalf("winner misses the speedup floor: %+v", best)
	}
	// No feasible candidate may be strictly cheaper.
	full, err := explore.Run(g, explore.Options{
		Workers: 1, TopK: int(g.Size()),
		Constraints: explore.Constraints{MinSpeedup: 7.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range full.Top {
		if c.Devices < best.Devices {
			t.Errorf("cheaper feasible candidate exists: %+v", c)
		}
	}
}

// TestFrontier: every frontier member is non-dominated, every
// non-member is dominated by some member, and the standalone Frontier
// function agrees with the engine's streaming construction.
func TestFrontier(t *testing.T) {
	g := testGrid()
	res, err := explore.Run(g, explore.Options{Workers: 4, TopK: int(g.Size()), Frontier: true})
	if err != nil {
		t.Fatal(err)
	}
	dominates := func(a, b explore.Candidate) bool {
		if a.Speedup < b.Speedup || a.UtilComp < b.UtilComp || a.Devices > b.Devices {
			return false
		}
		return a.Speedup > b.Speedup || a.UtilComp > b.UtilComp || a.Devices < b.Devices
	}
	inFront := map[uint64]bool{}
	for _, f := range res.Frontier {
		inFront[f.Index] = true
		for _, o := range res.Top {
			if dominates(o, f) {
				t.Errorf("frontier member %d is dominated by %d", f.Index, o.Index)
			}
		}
	}
	for _, c := range res.Top {
		if inFront[c.Index] {
			continue
		}
		dominated := false
		for _, f := range res.Frontier {
			if dominates(f, c) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("non-frontier candidate %d is not dominated by any frontier member", c.Index)
		}
	}
	if got := explore.Frontier(res.Top); !reflect.DeepEqual(got, res.Frontier) {
		t.Error("Frontier(all candidates) differs from the engine's streaming frontier")
	}
}

// TestExploreEmptyAxesSingleCandidate: the zero grid is the base
// worksheet under both bufferings.
func TestExploreEmptyAxesSingleCandidate(t *testing.T) {
	g := explore.Grid{Base: paper.MDParams()}
	res, err := explore.Run(g, explore.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 2 || len(res.Top) != 2 {
		t.Fatalf("zero grid evaluated %d candidates, want 2 (both bufferings)", res.Evaluated)
	}
	pr := core.MustPredict(paper.MDParams())
	for _, c := range res.Top {
		want := pr.SpeedupSingle
		if c.Buffering == core.DoubleBuffered {
			want = pr.SpeedupDouble
		}
		if c.Speedup != want {
			t.Errorf("%v speedup = %v, want %v", c.Buffering, c.Speedup, want)
		}
	}
}

// TestExploreTopKBeyondGrid: a TopK far beyond the grid keeps meaning
// "all of them" without sizing anything by it.
func TestExploreTopKBeyondGrid(t *testing.T) {
	g := explore.Grid{Base: paper.PDF1DParams(), Clocks: []float64{core.MHz(100), core.MHz(150)}}
	for _, workers := range []int{1, 3} {
		res, err := explore.Run(g, explore.Options{Workers: workers, TopK: 1 << 40, Frontier: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluated != 4 || len(res.Top) != 4 {
			t.Errorf("workers=%d: evaluated %d, kept %d, want all 4", workers, res.Evaluated, len(res.Top))
		}
	}
}

// exploreGridShaped is a grid of perfbench's explore-grid shape: 16
// clocks x 16 throughput_procs x 4 alphas x 4 block sizes x 4 device
// counts x 2 bufferings = 32,768 candidates in rows of 256.
func exploreGridShaped() explore.Grid {
	g := explore.Grid{
		Base:       paper.PDF1DParams(),
		Alphas:     []float64{0.15, 0.3, 0.55, 0.9},
		BlockSizes: []int64{128, 512, 1024, 4096},
		Devices:    []int{1, 2, 4, 8},
		Topology:   core.SharedChannel,
	}
	for i := 0; i < 16; i++ {
		g.Clocks = append(g.Clocks, core.MHz(float64(60+15*i)))
		g.ThroughputProcs = append(g.ThroughputProcs, 5+2.5*float64(i))
	}
	return g
}

// TestExploreEvaluationsCounter: rat_explore_evaluations_total counts
// the work a run did, and rat_explore_candidates_total the candidates
// it covered. One
// worker does the same work every time, and a top-10 request on an
// explore-grid-shaped grid evaluates under a tenth of what it covers.
// With the frontier it makes 2,682 evaluations; the limit sits about
// 5% above that.
func TestExploreEvaluationsCounter(t *testing.T) {
	g := exploreGridShaped()
	base := core.MustPredict(g.Base)
	for _, frontier := range []bool{false, true} {
		opts := explore.Options{Workers: 1, TopK: 10, Frontier: frontier,
			Constraints: explore.Constraints{MinSpeedup: base.SpeedupSingle}}
		var first int64
		for run := 0; run < 3; run++ {
			reg := telemetry.NewRegistry()
			opts.Metrics = reg
			res, err := explore.Run(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			evals := reg.Counter("rat_explore_evaluations_total").Value()
			if got := reg.Counter("rat_explore_candidates_total").Value(); got != int64(res.Evaluated) || got != 32768 {
				t.Fatalf("rat_explore_candidates_total = %d, want the 32768 covered", got)
			}
			if run == 0 {
				first = evals
			} else if evals != first {
				t.Errorf("frontier=%v: run %d evaluated %d, run 0 evaluated %d", frontier, run, evals, first)
			}
			// The frontier costs more work: its boxes must be tested
			// and the undominated ones evaluated in full.
			limit := int64(32768 / 10)
			if frontier {
				limit = 2816
			}
			if evals <= 0 || evals >= limit {
				t.Errorf("frontier=%v: evaluated %d of 32768 covered, want under %d", frontier, evals, limit)
			}
		}
		t.Logf("frontier=%v: %d evaluations", frontier, first)
	}
}

// TestExploreTelemetry: the engine reports three counters and one
// histogram of shard times, and no last-run gauge.
func TestExploreTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := testGrid()
	res, err := explore.Run(g, explore.Options{Workers: 2, Metrics: reg, CollectSpans: true})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["rat_explore_candidates_total"]; got != int64(res.Evaluated) {
		t.Errorf("rat_explore_candidates_total = %d, want %d", got, res.Evaluated)
	}
	if got := snap.Counters["rat_explore_feasible_total"]; got != int64(res.Feasible) {
		t.Errorf("rat_explore_feasible_total = %d, want %d", got, res.Feasible)
	}
	if snap.Counters["rat_explore_evaluations_total"] <= 0 {
		t.Error("rat_explore_evaluations_total not counted")
	}
	shards := snap.Histograms["rat_explore_shard_seconds"]
	if shards.Count != int64(len(res.Spans)) || shards.Count == 0 || shards.Max < shards.Min {
		t.Errorf("rat_explore_shard_seconds = %+v, want one observation per shard (%d)", shards, len(res.Spans))
	}
	var longest float64
	for _, sp := range res.Spans {
		longest = max(longest, sp.Elapsed.Seconds())
	}
	if shards.Max != longest {
		t.Errorf("rat_explore_shard_seconds max = %g, want the longest span %g", shards.Max, longest)
	}
	if len(snap.Counters) != 3 || len(snap.Gauges) != 0 || len(snap.Histograms) != 1 {
		t.Errorf("engine telemetry = %+v, want three counters and one histogram", snap)
	}
}

// TestParseObjective round-trips every objective.
func TestParseObjective(t *testing.T) {
	for _, o := range []explore.Objective{explore.MaxSpeedup, explore.MinTRC, explore.MinCost} {
		got, err := explore.ParseObjective(o.String())
		if err != nil || got != o {
			t.Errorf("ParseObjective(%q) = %v, %v", o.String(), got, err)
		}
	}
	if _, err := explore.ParseObjective("fastest"); err == nil {
		t.Error("ParseObjective accepted an unknown objective")
	}
}

// TestExploreSpans: with CollectSpans on, the returned spans tile the
// candidate index space exactly — sorted by Lo, non-overlapping, with
// no gaps — and carry plausible worker and timing fields. Off by
// default, the slice stays nil so the hot path pays nothing.
func TestExploreSpans(t *testing.T) {
	g := testGrid()
	for _, workers := range []int{1, 3, 8} {
		res, err := explore.Run(g, explore.Options{Workers: workers, TopK: 4, CollectSpans: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Spans) == 0 {
			t.Fatalf("workers=%d: no spans collected", workers)
		}
		next := uint64(0)
		for i, sp := range res.Spans {
			if sp.Lo != next {
				t.Fatalf("workers=%d span %d: Lo=%d, want %d (spans must tile [0,size))", workers, i, sp.Lo, next)
			}
			if sp.Hi <= sp.Lo {
				t.Fatalf("workers=%d span %d: empty range [%d,%d)", workers, i, sp.Lo, sp.Hi)
			}
			if sp.Worker < 0 || sp.Worker >= workers {
				t.Errorf("workers=%d span %d: worker %d out of range", workers, i, sp.Worker)
			}
			if sp.Elapsed < 0 {
				t.Errorf("workers=%d span %d: negative elapsed %v", workers, i, sp.Elapsed)
			}
			next = sp.Hi
		}
		if next != g.Size() {
			t.Fatalf("workers=%d: spans end at %d, want %d", workers, next, g.Size())
		}
	}

	res, err := explore.Run(g, explore.Options{Workers: 2, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans != nil {
		t.Errorf("CollectSpans off still produced %d spans", len(res.Spans))
	}
}

// TestShardWindowsMatchWholeGrid: a shard may start and stop anywhere
// in the engine's odometer walk — inside a row of clocks x
// throughput_procs, on a row boundary, or across a carry into any
// outer axis. On a grid with co-prime axis lengths (3 blocks x 2
// alphas x 3 devices x 2 bufferings x 5 clocks x 7 throughput_procs =
// 1,260 candidates, rows of 35), every window [lo, lo+w) evaluates
// exactly the whole grid's candidates at those indices, which in turn
// equal EvalIndices' one-index-at-a-time evaluation.
func TestShardWindowsMatchWholeGrid(t *testing.T) {
	for _, topo := range []core.Topology{core.SharedChannel, core.IndependentChannels} {
		g := explore.Grid{
			Base:            paper.PDF1DParams(),
			Clocks:          []float64{core.MHz(75), core.MHz(100), core.MHz(125), core.MHz(150), core.MHz(175)},
			ThroughputProcs: []float64{4, 8, 12, 16, 20, 24, 28},
			Alphas:          []float64{0.16, 0.37},
			BlockSizes:      []int64{512, 1024, 2048},
			Devices:         []int{1, 2, 4},
			Topology:        topo,
		}
		size := g.Size()
		if size != 1260 {
			t.Fatalf("grid size %d, want 1260", size)
		}
		all := make([]uint64, size)
		for i := range all {
			all[i] = uint64(i)
		}
		cg, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		want, err := cg.EvalIndices(explore.Constraints{}, all)
		if err != nil {
			t.Fatal(err)
		}
		// EvalIndices shares the engine's loop, so pin its design
		// knobs to the worksheet Grid.At materializes.
		for _, c := range want {
			p, mc, buf, err := g.At(c.Index)
			if err != nil {
				t.Fatal(err)
			}
			if c.ClockHz != p.Comp.ClockHz || c.ThroughputProc != p.Comp.ThroughputProc ||
				c.AlphaWrite != p.Comm.AlphaWrite || c.AlphaRead != p.Comm.AlphaRead ||
				c.ElementsIn != p.Dataset.ElementsIn || c.ElementsOut != p.Dataset.ElementsOut ||
				c.Iterations != p.Soft.Iterations || c.Devices != mc.Devices || c.Buffering != buf {
				t.Fatalf("%v: candidate %d's knobs %+v differ from Grid.At's worksheet", topo, c.Index, c)
			}
		}
		// Whole-grid runs whose shards start on and off row boundaries.
		for _, workers := range []int{1, 2, 7} {
			res, err := explore.Run(g, explore.Options{Workers: workers, TopK: int(size)})
			if err != nil {
				t.Fatal(err)
			}
			got := byIndex(res.Top)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v, %d workers: whole-grid run differs from EvalIndices", topo, workers)
			}
		}
		for _, w := range []uint64{1, 2, 7, 34, 35, 36} {
			for lo := uint64(0); lo+w <= size; lo++ {
				res, err := explore.Run(g, explore.Options{Workers: 1, TopK: int(w), IndexLo: lo, IndexHi: lo + w})
				if err != nil {
					t.Fatal(err)
				}
				if got := byIndex(res.Top); !reflect.DeepEqual(got, want[lo:lo+w]) {
					t.Fatalf("%v: window [%d, %d) differs from the whole grid's candidates", topo, lo, lo+w)
				}
				ev, err := cg.EvalIndices(explore.Constraints{}, all[lo:lo+w])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ev, want[lo:lo+w]) {
					t.Fatalf("%v: EvalIndices over [%d, %d) differs from the whole grid's candidates", topo, lo, lo+w)
				}
			}
		}
	}
}

// byIndex returns a copy of cands sorted by candidate index.
func byIndex(cands []explore.Candidate) []explore.Candidate {
	out := append([]explore.Candidate(nil), cands...)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// TestFrontierIndependentOfInputOrder: Frontier is a pure function of
// its input set, whatever order the candidates arrive in — including
// members with equal objective vectors, which neither dominates. Equal
// clock x throughput_proc products (100 MHz x 20 = 200 MHz x 10) give
// such ties.
func TestFrontierIndependentOfInputOrder(t *testing.T) {
	g := explore.Grid{
		Base:            paper.PDF1DParams(),
		Clocks:          []float64{core.MHz(100), core.MHz(200)},
		ThroughputProcs: []float64{10, 20, 40},
		Alphas:          []float64{0.16, 0.37},
		Devices:         []int{1, 2, 4},
		Topology:        core.IndependentChannels,
	}
	res, err := explore.Run(g, explore.Options{Workers: 1, TopK: int(g.Size()), Frontier: true})
	if err != nil {
		t.Fatal(err)
	}
	want := explore.Frontier(res.Top)
	if !reflect.DeepEqual(want, res.Frontier) {
		t.Fatal("Frontier(all candidates) differs from the engine's frontier")
	}
	ties := 0
	for i := range want {
		for j := i + 1; j < len(want); j++ {
			a, b := want[i], want[j]
			if a.Speedup == b.Speedup && a.UtilComp == b.UtilComp && a.Devices == b.Devices {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("fixture frontier holds no equal objective vectors")
	}
	r := rand.New(rand.NewSource(15))
	cands := append([]explore.Candidate(nil), res.Top...)
	for perm := 0; perm < 200; perm++ {
		r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		if got := explore.Frontier(cands); !reflect.DeepEqual(got, want) {
			t.Fatalf("permutation %d: Frontier differs from the index-ordered input's", perm)
		}
	}
}
