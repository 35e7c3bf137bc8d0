package core_test

import (
	"errors"
	"math"
	"testing"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
)

// TestSolveThroughputProcMD reproduces the paper's use of the inverse
// solver on the molecular-dynamics study: with everything else at Table
// 8 values and a 100 MHz clock, a 10x speedup goal requires roughly 47
// ops/cycle, which the authors round up to the headline 50 (Section
// 5.2: "50 is the quantitative value computed by the equations to
// achieve the desired overall speedup of approximately 10x").
func TestSolveThroughputProcMD(t *testing.T) {
	p := paper.MDParams().WithClock(core.MHz(100))
	got, err := core.SolveThroughputProc(p, 10, core.SingleBuffered)
	if err != nil {
		t.Fatalf("SolveThroughputProc: %v", err)
	}
	if got < 46 || got > 48 {
		t.Errorf("required throughput_proc = %.2f ops/cycle, want ~46.7 (paper rounds to 50)", got)
	}
	// Rounding up to the paper's 50 must then beat the target.
	pr := core.MustPredict(p.WithThroughputProc(math.Ceil(got/10) * 10))
	if pr.SpeedupSingle < 10 {
		t.Errorf("speedup with rounded-up 50 ops/cycle = %.2f, want >= 10", pr.SpeedupSingle)
	}
}

// TestSolverInverseConsistency: predicting with the solved parameter
// must land exactly on the target speedup, for both disciplines and
// for every solver.
func TestSolverInverseConsistency(t *testing.T) {
	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		for _, b := range []core.Buffering{core.SingleBuffered, core.DoubleBuffered} {
			p := paper.Params(c)
			target := 5.0

			tp, err := core.SolveThroughputProc(p, target, b)
			if err != nil {
				t.Fatalf("%s/%s SolveThroughputProc: %v", c, b, err)
			}
			pr := core.MustPredict(p.WithThroughputProc(tp))
			if got := pr.Speedup(b); math.Abs(got-target) > 1e-9*target {
				t.Errorf("%s/%s: speedup with solved throughput_proc = %g, want %g", c, b, got, target)
			}

			fc, err := core.SolveClock(p, target, b)
			if err != nil {
				t.Fatalf("%s/%s SolveClock: %v", c, b, err)
			}
			pr = core.MustPredict(p.WithClock(fc))
			if got := pr.Speedup(b); math.Abs(got-target) > 1e-9*target {
				t.Errorf("%s/%s: speedup with solved clock = %g, want %g", c, b, got, target)
			}
		}
	}
}

// TestSolveAlphaConsistency: applying the solved common alpha to both
// directions must hit the target exactly when it is feasible (<= 1).
func TestSolveAlphaConsistency(t *testing.T) {
	p := paper.PDF2DParams()
	// Choose a modest target dominated by communication so alpha matters:
	// make computation nearly free first.
	p.Comp.ThroughputProc = 1e6
	target := 50.0
	a, err := core.SolveAlpha(p, target, core.SingleBuffered)
	if err != nil {
		t.Fatalf("SolveAlpha: %v", err)
	}
	if a <= 0 {
		t.Fatalf("solved alpha = %g, want positive", a)
	}
	if a > 1 {
		t.Skipf("target infeasible on this interconnect (alpha=%g); nothing to verify", a)
	}
	p.Comm.AlphaWrite, p.Comm.AlphaRead = a, a
	pr := core.MustPredict(p)
	if got := pr.SpeedupSingle; math.Abs(got-target) > 1e-6*target {
		t.Errorf("speedup with solved alpha = %g, want %g", got, target)
	}
}

// TestSolveAlphaInfeasible: a target beyond what even a perfect
// interconnect delivers must solve to alpha > 1, signalling that no
// tuning of this link reaches the goal.
func TestSolveAlphaInfeasible(t *testing.T) {
	p := paper.PDF2DParams()
	p.Comp.ThroughputProc = 1e6 // computation nearly free
	pr := core.MustPredict(p)
	// Budget twice the computation time per iteration: computation
	// fits, but even a perfect interconnect cannot move 266240 bytes
	// in the remaining few microseconds.
	budget := 2 * pr.TComp
	target := p.Soft.TSoft / (float64(p.Soft.Iterations) * budget)
	a, err := core.SolveAlpha(p, target, core.SingleBuffered)
	if err != nil {
		t.Fatalf("SolveAlpha: %v", err)
	}
	if a <= 1 {
		t.Errorf("infeasible target solved to alpha %g; want > 1", a)
	}
}

// TestSolveUnreachable: when communication alone exceeds the time
// budget the target implies, the computation-side solvers must fail
// with ErrUnreachable rather than return a nonsensical value.
func TestSolveUnreachable(t *testing.T) {
	p := paper.PDF1DParams()
	pr := core.MustPredict(p)
	impossible := pr.MaxSpeedup() * 2

	for _, b := range []core.Buffering{core.SingleBuffered, core.DoubleBuffered} {
		if _, err := core.SolveThroughputProc(p, impossible, b); !errors.Is(err, core.ErrUnreachable) {
			t.Errorf("%s: SolveThroughputProc(impossible) error = %v, want ErrUnreachable", b, err)
		}
		if _, err := core.SolveClock(p, impossible, b); !errors.Is(err, core.ErrUnreachable) {
			t.Errorf("%s: SolveClock(impossible) error = %v, want ErrUnreachable", b, err)
		}
	}
	// Just inside the asymptote must still be solvable double-buffered.
	feasible := pr.MaxSpeedup() * 0.999
	if _, err := core.SolveThroughputProc(p, feasible, core.DoubleBuffered); err != nil {
		t.Errorf("target just under the comm-bound limit should solve: %v", err)
	}
}

// TestSolveAlphaUnreachableByComputation: SolveAlpha with a
// single-buffered budget already consumed by computation must report
// ErrUnreachable.
func TestSolveAlphaUnreachableByComputation(t *testing.T) {
	p := paper.MDParams() // heavily compute-bound
	if _, err := core.SolveAlpha(p, 100, core.SingleBuffered); !errors.Is(err, core.ErrUnreachable) {
		t.Errorf("error = %v, want ErrUnreachable", err)
	}
}

func TestSolveArgumentValidation(t *testing.T) {
	p := paper.PDF1DParams()
	if _, err := core.SolveThroughputProc(p, -1, core.SingleBuffered); !errors.Is(err, core.ErrInvalidParameters) {
		t.Errorf("negative target: error = %v, want ErrInvalidParameters", err)
	}
	if _, err := core.SolveClock(p, 0, core.SingleBuffered); !errors.Is(err, core.ErrInvalidParameters) {
		t.Errorf("zero target: error = %v, want ErrInvalidParameters", err)
	}
	q := p
	q.Soft.TSoft = 0
	if _, err := core.SolveThroughputProc(q, 10, core.SingleBuffered); !errors.Is(err, core.ErrInvalidParameters) {
		t.Errorf("no baseline: error = %v, want ErrInvalidParameters", err)
	}
	var bad core.Parameters
	if _, err := core.SolveClock(bad, 10, core.SingleBuffered); !errors.Is(err, core.ErrInvalidParameters) {
		t.Errorf("invalid params: error = %v, want ErrInvalidParameters", err)
	}
	if _, err := core.SolveAlpha(bad, 10, core.SingleBuffered); !errors.Is(err, core.ErrInvalidParameters) {
		t.Errorf("SolveAlpha invalid params: error = %v, want ErrInvalidParameters", err)
	}
	if _, err := core.RequiredTSoft(bad, 10, core.SingleBuffered); !errors.Is(err, core.ErrInvalidParameters) {
		t.Errorf("RequiredTSoft invalid params: error = %v, want ErrInvalidParameters", err)
	}
	if _, err := core.RequiredTSoft(p, -3, core.SingleBuffered); !errors.Is(err, core.ErrInvalidParameters) {
		t.Errorf("RequiredTSoft negative target: error = %v, want ErrInvalidParameters", err)
	}
	if _, err := core.CrossoverClock(bad); !errors.Is(err, core.ErrInvalidParameters) {
		t.Errorf("CrossoverClock invalid params: error = %v, want ErrInvalidParameters", err)
	}
	// A worksheet that validates but overflows is refused by the
	// solvers that evaluate the forward model, not answered with +Inf.
	for _, b := range []core.Buffering{core.SingleBuffered, core.DoubleBuffered} {
		if a, err := core.SolveAlpha(overflowParams(), 10, b); !errors.Is(err, core.ErrInvalidParameters) {
			t.Errorf("SolveAlpha overflow (%s) = %v, %v; want ErrInvalidParameters", b, a, err)
		}
		if ts, err := core.RequiredTSoft(overflowParams(), 10, b); !errors.Is(err, core.ErrInvalidParameters) {
			t.Errorf("RequiredTSoft overflow (%s) = %v, %v; want ErrInvalidParameters", b, ts, err)
		}
	}
}

func TestRequiredTSoft(t *testing.T) {
	p := paper.PDF1DParams()
	target := 25.0
	need, err := core.RequiredTSoft(p, target, core.SingleBuffered)
	if err != nil {
		t.Fatalf("RequiredTSoft: %v", err)
	}
	p.Soft.TSoft = need
	pr := core.MustPredict(p)
	if math.Abs(pr.SpeedupSingle-target) > 1e-9*target {
		t.Errorf("speedup with required t_soft = %g, want %g", pr.SpeedupSingle, target)
	}
}

// TestCrossoverClock: at the crossover clock, per-iteration computation
// and communication times must be equal; below it the design is
// compute-bound, above it communication-bound.
func TestCrossoverClock(t *testing.T) {
	p := paper.PDF1DParams()
	fc, err := core.CrossoverClock(p)
	if err != nil {
		t.Fatalf("CrossoverClock: %v", err)
	}
	at := core.MustPredict(p.WithClock(fc))
	if math.Abs(at.TComm-at.TComp) > 1e-9*at.TComm {
		t.Errorf("at crossover clock: t_comm=%g t_comp=%g, want equal", at.TComm, at.TComp)
	}
	if below := core.MustPredict(p.WithClock(fc * 0.5)); below.CommunicationBound() {
		t.Error("below crossover clock the design must be compute-bound")
	}
	if above := core.MustPredict(p.WithClock(fc * 2)); !above.CommunicationBound() {
		t.Error("above crossover clock the design must be communication-bound")
	}
	// The paper's studied clocks all sit far below crossover (the
	// designs are compute-bound with <= 4% comm utilization).
	if fc < core.MHz(150) {
		t.Errorf("crossover clock %.0f MHz unexpectedly below the studied range", fc/1e6)
	}
}
