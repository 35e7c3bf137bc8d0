package explore

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
)

// extreme draws a positive float that is either of everyday magnitude
// (10^lo .. 10^hi) or anywhere in the float64 range, subnormals
// included, so products overflow and quotients underflow often.
func extreme(r *rand.Rand, lo, hi float64) float64 {
	if r.Intn(2) == 0 {
		return math.Pow(10, lo+(hi-lo)*r.Float64())
	}
	return math.Pow(10, -320+628*r.Float64())
}

// extremeAxis draws 1..3 distinct values with extreme, capped at limit.
func extremeAxis(r *rand.Rand, lo, hi, limit float64) []float64 {
	out := make([]float64, 0, 3)
	for n := 1 + r.Intn(3); len(out) < n; {
		v := math.Min(extreme(r, lo, hi), limit)
		dup := false
		for _, w := range out {
			dup = dup || w == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// extremeGrid draws a grid whose every field validates but whose
// derived numbers may overflow, underflow or both.
func extremeGrid(r *rand.Rand) Grid {
	p := paper.PDF1DParams()
	p.Dataset.ElementsIn = 1 + r.Int63n(1<<30)
	p.Dataset.ElementsOut = r.Int63n(p.Dataset.ElementsIn + 1)
	p.Dataset.BytesPerElement = extreme(r, 0, 2)
	p.Comm.IdealThroughput = extreme(r, 8, 10)
	p.Comm.AlphaWrite = math.Min(extreme(r, -2, 0), 1)
	p.Comm.AlphaRead = math.Min(extreme(r, -2, 0), 1)
	p.Comp.OpsPerElement = extreme(r, 0, 3)
	p.Comp.ClockHz = extreme(r, 7, 9)
	p.Comp.ThroughputProc = extreme(r, 0, 2)
	p.Soft.Iterations = 1 + r.Int63n(1<<30)
	p.Soft.TSoft = 0
	if r.Intn(4) != 0 {
		p.Soft.TSoft = extreme(r, -3, 3)
	}
	g := Grid{Base: p, Topology: core.Topology(r.Intn(2))}
	if r.Intn(2) == 0 {
		g.Clocks = extremeAxis(r, 7, 9, math.MaxFloat64)
	}
	if r.Intn(2) == 0 {
		g.ThroughputProcs = extremeAxis(r, 0, 2, math.MaxFloat64)
	}
	if r.Intn(2) == 0 {
		g.Alphas = extremeAxis(r, -2, 0, 1)
	}
	for _, e := range r.Perm(3)[:r.Intn(3)] {
		g.BlockSizes = append(g.BlockSizes, p.Dataset.ElementsIn<<(4*e)>>4+1)
	}
	for _, d := range r.Perm(4)[:r.Intn(3)] {
		g.Devices = append(g.Devices, 1<<(10*d))
	}
	g.Bufferings = [][]core.Buffering{nil, {core.SingleBuffered}, {core.DoubleBuffered}}[r.Intn(3)]
	return g
}

// TestCompileRejectsExactlyNonFiniteGrids: over seeded extreme grids,
// compile rejects a grid exactly when evaluating every one of its
// candidates yields a NaN or an infinity, and the rejection wraps
// ErrInvalidParameters.
func TestCompileRejectsExactlyNonFiniteGrids(t *testing.T) {
	const trials = 20000
	r := rand.New(rand.NewSource(15))
	var accepted, rejected int
	for trial := 0; trial < trials; trial++ {
		g := extremeGrid(r)
		c, err := g.precompute()
		if err != nil {
			t.Fatalf("trial %d: extreme grid failed structural validation: %v", trial, err)
		}
		var st workerState
		st.top.init(int(c.size), MaxSpeedup)
		st.evalShard(c, Constraints{}, 0, c.size, false)
		if uint64(len(st.top.items)) != c.size {
			t.Fatalf("trial %d: kept %d of %d candidates", trial, len(st.top.items), c.size)
		}
		nonFinite := -1
		for i, cand := range st.top.items {
			for _, v := range [...]float64{cand.TComm, cand.TComp, cand.TRC, cand.Speedup, cand.UtilComm, cand.UtilComp} {
				if !isFinite(v) {
					nonFinite = i
				}
			}
		}
		_, err = g.Compile()
		switch {
		case err == nil && nonFinite >= 0:
			t.Fatalf("trial %d: compile accepted a grid whose candidate %+v is not finite", trial, st.top.items[nonFinite])
		case err != nil && nonFinite < 0:
			t.Fatalf("trial %d: compile rejected a grid whose %d candidates are all finite: %v", trial, c.size, err)
		case err != nil && !errors.Is(err, core.ErrInvalidParameters):
			t.Fatalf("trial %d: rejection %v does not wrap ErrInvalidParameters", trial, err)
		case err != nil:
			rejected++
		default:
			accepted++
		}
	}
	// Both sides of the rule must be exercised for the test to mean anything.
	if accepted < trials/10 || rejected < trials/10 {
		t.Fatalf("accepted %d and rejected %d of %d grids; the generator is lopsided", accepted, rejected, trials)
	}
	t.Logf("accepted %d, rejected %d", accepted, rejected)
}
