package explore

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
)

// exhaustive is the reference the row walk must match: evalShard's
// loop over the whole index window on one worker, merged as Run
// merges.
func exhaustive(t testing.TB, g Grid, opts Options) Result {
	t.Helper()
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := opts.IndexLo, opts.IndexHi
	if lo == 0 && hi == 0 {
		hi = c.size
	}
	k := opts.TopK
	if k <= 0 {
		k = 10
	}
	states := make([]workerState, 1)
	states[0].top.init(min(k, int(hi-lo)), opts.Objective)
	states[0].evalShard(c, opts.Constraints, lo, hi, opts.Frontier)
	res := merge(states, k, opts.Objective, opts.Frontier)
	res.Evaluated = hi - lo
	return res
}

// chooser draws the choices that shape a test case: from a seeded
// generator in the property test, from the fuzzer's bytes in the fuzz
// target.
type chooser interface {
	intn(n int) int
}

type randChooser struct{ r *rand.Rand }

func (c randChooser) intn(n int) int { return c.r.Intn(n) }

// byteChooser reads two bytes per choice and answers 0 once the input
// runs out, so every input decodes to some case.
type byteChooser struct{ data []byte }

func (c *byteChooser) intn(n int) int {
	v := 0
	for i := 0; i < 2 && len(c.data) > 0; i++ {
		v = v<<8 | int(c.data[0])
		c.data = c.data[1:]
	}
	return v % n
}

// pick draws up to most distinct values of from, in a drawn order.
func pick[T any](ch chooser, from []T, most int) []T {
	perm := make([]T, len(from))
	copy(perm, from)
	for i := len(perm) - 1; i > 0; i-- {
		j := ch.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:ch.intn(most+1)]
}

// caseGrid draws a grid whose clock x throughput_proc products tie
// often (100 MHz x 3 = 150 MHz x 2 = 300 MHz x 1), with rows of 1 to
// 64 positions on both sides of shortRow, t_soft 0 in one grid in six,
// single-, double- and mixed-buffered axes and both topologies.
func caseGrid(ch chooser) Grid {
	base := paper.Params([]paper.Case{paper.PDF1D, paper.PDF2D, paper.MD}[ch.intn(3)])
	if ch.intn(6) == 0 {
		base.Soft.TSoft = 0
	}
	g := Grid{Base: base, Topology: core.Topology(ch.intn(2))}
	for _, mhz := range pick(ch, []float64{50, 75, 100, 150, 200, 300, 400, 600}, 8) {
		g.Clocks = append(g.Clocks, core.MHz(mhz))
	}
	g.ThroughputProcs = pick(ch, []float64{1, 1.5, 2, 3, 4, 6, 8, 12}, 8)
	g.Alphas = pick(ch, []float64{0.1, 0.16, 0.37, 0.5, 0.8, 1}, 3)
	e := base.Dataset.ElementsIn
	g.BlockSizes = pick(ch, []int64{max(e/4, 1), max(e/2, 1) + 1, e, 2 * e, 4 * e}, 3)
	g.Devices = pick(ch, []int{1, 2, 3, 4, 8}, 3)
	g.Bufferings = [][]core.Buffering{
		nil,
		{core.SingleBuffered},
		{core.DoubleBuffered},
		{core.DoubleBuffered, core.SingleBuffered},
	}[ch.intn(4)]
	return g
}

// caseOptions draws the request: every objective, each constraint
// alone or combined at a value some candidate hits exactly, TopK from
// 1 to the grid size, a random window, and 1 to 3 workers.
func caseOptions(t testing.TB, ch chooser, g Grid) Options {
	size := g.Size()
	all := exhaustive(t, g, Options{TopK: int(size)}).Top
	some := func() *Candidate { return &all[ch.intn(len(all))] }
	opts := Options{
		Workers:   1 + ch.intn(3),
		Objective: Objective(ch.intn(3)),
		Frontier:  ch.intn(4) != 0,
	}
	switch ch.intn(3) {
	case 0:
		opts.TopK = 1 + ch.intn(min(int(size), 12))
	case 1:
		opts.TopK = 1 + ch.intn(int(size))
	}
	if ch.intn(3) == 0 {
		opts.Constraints.MinSpeedup = some().Speedup
	}
	if ch.intn(3) == 0 {
		opts.Constraints.MaxTRC = some().TRC
	}
	if ch.intn(3) == 0 {
		opts.Constraints.MaxUtilComm = some().UtilComm
	}
	if ch.intn(4) == 0 {
		opts.Constraints.MaxDevices = some().Devices
	}
	if ch.intn(3) != 0 {
		lo := uint64(ch.intn(int(size)))
		opts.IndexLo, opts.IndexHi = lo, lo+1+uint64(ch.intn(int(size-lo)))
	}
	return opts
}

// candidateBits is a candidate's every field as bits, so comparisons
// tell -0 from +0 and see any last-ulp difference.
func candidateBits(c *Candidate) [16]uint64 {
	f := math.Float64bits
	return [16]uint64{c.Index, f(c.ClockHz), f(c.ThroughputProc), f(c.AlphaWrite), f(c.AlphaRead),
		uint64(c.ElementsIn), uint64(c.ElementsOut), uint64(c.Iterations), uint64(c.Devices),
		uint64(c.Buffering), f(c.TComm), f(c.TComp), f(c.TRC), f(c.Speedup), f(c.UtilComm), f(c.UtilComp)}
}

// sameCandidates reports whether a and b hold bit-identical candidates
// in the same order, nil and empty told apart.
func sameCandidates(a, b []Candidate) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if candidateBits(&a[i]) != candidateBits(&b[i]) {
			return false
		}
	}
	return true
}

// checkPruned runs one case both ways and reports any difference in
// Top, Frontier, Feasible or Evaluated.
func checkPruned(t testing.TB, g Grid, opts Options) {
	t.Helper()
	got, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := exhaustive(t, g, opts)
	if got.Evaluated != want.Evaluated || got.Feasible != want.Feasible {
		t.Fatalf("counts (evaluated, feasible) = (%d, %d), want (%d, %d)\ngrid %+v\nopts %+v",
			got.Evaluated, got.Feasible, want.Evaluated, want.Feasible, g, opts)
	}
	if !sameCandidates(got.Top, want.Top) {
		t.Fatalf("top differs from the exhaustive loop\ngrid %+v\nopts %+v\ngot  %+v\nwant %+v", g, opts, got.Top, want.Top)
	}
	if !sameCandidates(got.Frontier, want.Frontier) {
		t.Fatalf("frontier differs from the exhaustive loop\ngrid %+v\nopts %+v\ngot  %d members\nwant %d members",
			g, opts, len(got.Frontier), len(want.Frontier))
	}
}

// TestPrunedMatchesExhaustive: over seeded random grids and requests,
// the row walk returns bit-for-bit the exhaustive loop's Top,
// Frontier, Feasible and Evaluated.
func TestPrunedMatchesExhaustive(t *testing.T) {
	const trials = 10000
	r := rand.New(rand.NewSource(16))
	ch := randChooser{r}
	var walked, short, tied int
	for trial := 0; trial < trials; trial++ {
		g := caseGrid(ch)
		opts := caseOptions(t, ch, g)
		checkPruned(t, g, opts)
		c, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		n := uint64(len(c.clocks) * len(c.tps))
		lo, hi := opts.IndexLo, opts.IndexHi
		if hi == 0 {
			hi = c.size
		}
		switch {
		case n < shortRow:
			short++
		case (lo+n-1)/n < hi/n:
			walked++ // the window holds a full row
		}
		if len(uniqueFloats(c.denom)) < len(c.denom) {
			tied++
		}
	}
	// Walked rows, short rows and tied products must each be
	// exercised for the comparison to mean anything.
	if walked < trials/10 || short < trials/10 || tied < trials/10 {
		t.Fatalf("%d walked, %d short-row and %d tied grids of %d; the generator is lopsided", walked, short, tied, trials)
	}
	t.Logf("%d walked, %d short-row, %d with tied products", walked, short, tied)
}

// uniqueFloats returns the distinct values of vs.
func uniqueFloats(vs []float64) map[float64]bool {
	out := map[float64]bool{}
	for _, v := range vs {
		out[v] = true
	}
	return out
}

// FuzzPrunedMatchesExhaustive draws grid shape, constraints, objective
// and window from the fuzzer's bytes and requires the row walk to
// match the exhaustive loop bit for bit.
func FuzzPrunedMatchesExhaustive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 7, 0, 7, 0, 3, 0, 1, 0, 2, 0, 2, 0, 3})
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 96)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ch := &byteChooser{data: data}
		g := caseGrid(ch)
		checkPruned(t, g, caseOptions(t, ch, g))
	})
}

// TestUtilCompBound checks the single-buffered util_comp bound on
// every ordered pair of positions of random rows: util_comp at any
// position is at most utilBound of util_comp at any position of lower
// or equal d. The rows are drawn so util_comp rises often; the test
// also requires it to rise, or the margin would go untested.
func TestUtilCompBound(t *testing.T) {
	const rows, positions = 200, 256
	r := rand.New(rand.NewSource(16))
	uc := make([]float64, positions)
	var rises, pairs int
	maxRise := uint64(0)
	for n := 0; n < rows; n++ {
		rw := row{
			opsCoeff: math.Pow(10, 2+6*r.Float64()),
			n:        float64(1 + r.Intn(8)),
			iters:    float64(1 + r.Intn(1000)),
			tSoft:    1,
		}
		// util_comp rises most often when t_comm is within a few
		// decades of t_comp and consecutive d differ by a few ulps.
		d0 := math.Pow(10, 8+2*r.Float64())
		tComp0 := rw.opsCoeff / d0 / rw.n
		rw.tComm = tComp0 * math.Pow(10, 1-4*r.Float64())
		step := d0 * math.Pow(10, -16+3*r.Float64())
		d := d0
		for i := range uc {
			uc[i] = rw.at(d).utilComp
			d += step * r.Float64()
		}
		for i := range uc {
			bound := rw.utilBound(uc[i])
			for j := i + 1; j < positions; j++ {
				pairs++
				if uc[j] > bound {
					t.Fatalf("row %d: util_comp %v at position %d exceeds the bound %v from position %d (%v)",
						n, uc[j], j, bound, i, uc[i])
				}
				if uc[j] > uc[i] {
					rises++
					maxRise = max(maxRise, math.Float64bits(uc[j])-math.Float64bits(uc[i]))
				}
			}
		}
	}
	if rises == 0 {
		t.Fatalf("util_comp never rose in %d ordered pairs; the rows do not exercise the margin", pairs)
	}
	t.Logf("%d of %d ordered pairs rose, by at most %d ulps", rises, pairs, maxRise)
}

// TestPrunedMatchesExhaustiveAcrossBatches: a shard of more full rows
// than rowBatch is walked batch by batch, and still matches the
// exhaustive loop for every objective, with and without the frontier.
func TestPrunedMatchesExhaustiveAcrossBatches(t *testing.T) {
	g := Grid{
		Base:            paper.PDF1DParams(),
		Clocks:          []float64{core.MHz(75), core.MHz(100), core.MHz(150), core.MHz(200)},
		ThroughputProcs: []float64{5, 10, 20, 40},
		Devices:         []int{1, 2, 4, 8},
		Topology:        core.IndependentChannels,
	}
	for i := 1; i <= 16; i++ {
		g.Alphas = append(g.Alphas, float64(i)/16)
	}
	for i := 1; i <= 16; i++ {
		g.BlockSizes = append(g.BlockSizes, 128*int64(i))
	}
	// One worker takes shardsPerWorker shards of 512 rows each.
	if rows := g.Size() / 16 / shardsPerWorker; rows <= rowBatch {
		t.Fatalf("%d rows per shard, want more than rowBatch (%d)", rows, rowBatch)
	}
	base := core.MustPredict(g.Base)
	for _, obj := range []Objective{MaxSpeedup, MinTRC, MinCost} {
		for _, frontier := range []bool{false, true} {
			checkPruned(t, g, Options{Workers: 1, TopK: 10, Objective: obj, Frontier: frontier,
				Constraints: Constraints{MinSpeedup: base.SpeedupSingle}})
		}
	}
}

// TestPlanOrderMatchesSort: the plan's merged byD and its byCost are
// exactly what sorting every row position gives, on random grids
// whose clock x throughput_proc products tie across clocks (100 MHz x
// 3 = 150 MHz x 2) and within one clock (throughput_procs an ulp
// apart whose products round to the same value).
func TestPlanOrderMatchesSort(t *testing.T) {
	const trials = 2000
	r := rand.New(rand.NewSource(17))
	var acrossTies, withinTies int
	for trial := 0; trial < trials; trial++ {
		g := Grid{Base: paper.PDF1DParams()}
		for _, i := range r.Perm(8)[:2+r.Intn(7)] {
			g.Clocks = append(g.Clocks, core.MHz([]float64{50, 75, 100, 150, 200, 300, 400, 600}[i]))
		}
		for _, i := range r.Perm(8)[:1+r.Intn(8)] {
			g.ThroughputProcs = append(g.ThroughputProcs, []float64{1, 1.5, 2, 3, 4, 6, 8, 12}[i])
		}
		tp := 1 + 15*r.Float64()
		for i := r.Intn(5); i > 0; i-- {
			g.ThroughputProcs = append(g.ThroughputProcs, tp)
			tp = math.Nextafter(tp, math.Inf(1))
		}
		r.Shuffle(len(g.ThroughputProcs), func(i, j int) {
			g.ThroughputProcs[i], g.ThroughputProcs[j] = g.ThroughputProcs[j], g.ThroughputProcs[i]
		})
		c, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		p := newPlan(c, Options{Objective: MinCost})
		nt := len(c.tps)
		all := make([]slot, 0, len(c.denom))
		for off, d := range c.denom {
			all = append(all, slot{d: d, clock: c.clocks[off/nt], tp: c.tps[off%nt], off: uint64(off)})
		}
		if len(all) < shortRow {
			if p.byD != nil || p.byCost != nil {
				t.Fatalf("trial %d: a %d-position row got a walk order", trial, len(all))
			}
			continue
		}
		wantD := slices.Clone(all)
		slices.SortFunc(wantD, func(a, b slot) int {
			if a.d != b.d {
				return cmp.Compare(a.d, b.d)
			}
			return cmp.Compare(a.off, b.off)
		})
		wantCost := slices.Clone(all)
		slices.SortFunc(wantCost, func(a, b slot) int {
			if a.tp != b.tp {
				return cmp.Compare(a.tp, b.tp)
			}
			return cmp.Compare(a.clock, b.clock)
		})
		if !slices.Equal(p.byD, wantD) {
			t.Fatalf("trial %d: byD differs from the sorted order\ngot  %v\nwant %v", trial, p.byD, wantD)
		}
		if !slices.Equal(p.byCost, wantCost) {
			t.Fatalf("trial %d: byCost differs from the sorted order\ngot  %v\nwant %v", trial, p.byCost, wantCost)
		}
		for i := 1; i < len(wantD); i++ {
			if a, b := &wantD[i-1], &wantD[i]; a.d == b.d {
				if a.clock == b.clock {
					withinTies++
				} else {
					acrossTies++
				}
			}
		}
	}
	if acrossTies == 0 || withinTies == 0 {
		t.Fatalf("%d ties across clocks and %d within one; the generator misses a case", acrossTies, withinTies)
	}
	t.Logf("%d ties across clocks, %d within one clock", acrossTies, withinTies)
}

// TestLeafSkyline checks the leaf sweep against a brute-force pairwise
// dominance filter on random leaves of 1 to leafSize points. Speedups
// never fall along a leaf and come in runs of equal values; util_comp
// values are drawn from a few levels, so they tie often, and they
// sometimes rise inside a run of equal speedups. The test also
// requires tied survivors, so a sweep that keeps one member of a tied
// vector fails it.
func TestLeafSkyline(t *testing.T) {
	const trials = 20000
	r := rand.New(rand.NewSource(23))
	var pts [leafSize]point
	var tiedKeeps, rises int
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(leafSize)
		speedup := float64(r.Intn(4))
		levels := 1 + r.Intn(4)
		for i := range n {
			if i > 0 && r.Intn(3) == 0 {
				speedup += float64(1 + r.Intn(2))
			}
			pts[i] = point{speedup: speedup, utilComp: float64(r.Intn(levels)) / 4}
			if i > 0 && pts[i].speedup == pts[i-1].speedup && pts[i].utilComp > pts[i-1].utilComp {
				rises++
			}
		}
		got := skyline(pts[:n])
		var want uint32
		for i := range n {
			dominated := false
			for j := range n {
				a, b := &pts[j], &pts[i]
				if a.speedup >= b.speedup && a.utilComp >= b.utilComp &&
					(a.speedup > b.speedup || a.utilComp > b.utilComp) {
					dominated = true
					break
				}
			}
			if !dominated {
				want |= 1 << i
			}
		}
		if got != want {
			t.Fatalf("trial %d: skyline %0*b, want %0*b\npoints %+v", trial, n, got, n, want, pts[:n])
		}
		for i := 1; i < n; i++ {
			if want&(1<<i) != 0 && want&(1<<(i-1)) != 0 &&
				pts[i].speedup == pts[i-1].speedup && pts[i].utilComp == pts[i-1].utilComp {
				tiedKeeps++
			}
		}
	}
	if tiedKeeps < trials/10 || rises < trials/10 {
		t.Fatalf("%d tied survivor pairs and %d util_comp rises in %d leaves; the generator misses a case", tiedKeeps, rises, trials)
	}
	t.Logf("%d tied survivor pairs, %d util_comp rises inside a run", tiedKeeps, rises)
}
