package core

import (
	"fmt"
	"math"
)

// RAT inputs are estimates: alphas come from microbenchmarks at one
// size, operation counts are measured from algorithm structure, the
// post-route clock is anybody's guess, and throughput_proc may be a
// deliberate derate. The paper handles the worst of these by sweeping
// clock values "to examine the scope of possible speedups"; this file
// generalizes that practice to every uncertain input at once.
//
// Every output of Eqs. (1)-(11) is monotone in each input, so exact
// interval bounds come from evaluating just two corner worksheets: the
// optimistic corner (fast interconnect, few operations, much
// parallelism, high clock, slow software baseline) and the pessimistic
// one. No sampling is involved and the bounds are tight.

// Uncertainty gives the relative half-width of each estimated input:
// 0.2 means "within ±20% of the worksheet value". Zero fields are
// treated as exact. Alphas are additionally clamped to (0, 1].
type Uncertainty struct {
	Alpha          float64 // both interconnect sustained fractions
	OpsPerElement  float64
	ThroughputProc float64
	Clock          float64
	TSoft          float64
}

// Validate rejects nonsense half-widths: each must be in [0, 1).
func (u Uncertainty) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Alpha", u.Alpha}, {"OpsPerElement", u.OpsPerElement},
		{"ThroughputProc", u.ThroughputProc}, {"Clock", u.Clock}, {"TSoft", u.TSoft},
	} {
		if f.v < 0 || f.v >= 1 || math.IsNaN(f.v) {
			return fmt.Errorf("%w: uncertainty %s must be in [0, 1) (got %v)", ErrInvalidParameters, f.name, f.v)
		}
	}
	return nil
}

// Bounds is an interval prediction: the pessimistic and optimistic
// corner evaluations bracketing every output of the throughput test.
type Bounds struct {
	// Nominal is the point prediction at the worksheet values.
	Nominal Prediction
	// Worst and Best are the corner evaluations (worst = slowest RC
	// execution / smallest speedup).
	Worst Prediction
	Best  Prediction
}

// clampAlpha keeps a scaled alpha physical.
func clampAlpha(a float64) float64 {
	if a > 1 {
		return 1
	}
	if a <= 0 {
		return math.SmallestNonzeroFloat64
	}
	return a
}

// corner builds one corner worksheet; sign = +1 for the optimistic
// corner, -1 for the pessimistic one.
func corner(p Parameters, u Uncertainty, sign float64) Parameters {
	q := p
	q.Comm.AlphaWrite = clampAlpha(p.Comm.AlphaWrite * (1 + sign*u.Alpha))
	q.Comm.AlphaRead = clampAlpha(p.Comm.AlphaRead * (1 + sign*u.Alpha))
	q.Comp.OpsPerElement = p.Comp.OpsPerElement * (1 - sign*u.OpsPerElement)
	q.Comp.ThroughputProc = p.Comp.ThroughputProc * (1 + sign*u.ThroughputProc)
	q.Comp.ClockHz = p.Comp.ClockHz * (1 + sign*u.Clock)
	q.Soft.TSoft = p.Soft.TSoft * (1 + sign*u.TSoft)
	return q
}

// PredictBounds evaluates the throughput test at the worksheet values
// and at both uncertainty corners. The returned bounds are exact: by
// monotonicity no interior parameter combination can fall outside
// [Worst, Best] on any output.
func PredictBounds(p Parameters, u Uncertainty) (Bounds, error) {
	if err := u.Validate(); err != nil {
		return Bounds{}, err
	}
	nominal, err := Predict(p)
	if err != nil {
		return Bounds{}, err
	}
	worst, err := Predict(corner(p, u, -1))
	if err != nil {
		return Bounds{}, fmt.Errorf("pessimistic corner: %w", err)
	}
	best, err := Predict(corner(p, u, +1))
	if err != nil {
		return Bounds{}, fmt.Errorf("optimistic corner: %w", err)
	}
	return Bounds{Nominal: nominal, Worst: worst, Best: best}, nil
}

// SpeedupRange returns the bracketed speedup under the given
// discipline: lo from the pessimistic corner, hi from the optimistic.
func (b Bounds) SpeedupRange(buf Buffering) (lo, hi float64) {
	return b.Worst.Speedup(buf), b.Best.Speedup(buf)
}

// TRCRange returns the bracketed RC execution time: lo (fastest) from
// the optimistic corner, hi (slowest) from the pessimistic.
func (b Bounds) TRCRange(buf Buffering) (lo, hi float64) {
	return b.Best.TRC(buf), b.Worst.TRC(buf)
}

// MeetsTarget classifies a speedup goal against the bounds:
// Certain if even the pessimistic corner meets it, Impossible if even
// the optimistic corner misses it, Uncertain otherwise — the honest
// pre-design answer the methodology should give a designer whose
// inputs are rough.
func (b Bounds) MeetsTarget(target float64, buf Buffering) TargetVerdict {
	lo, hi := b.SpeedupRange(buf)
	switch {
	case lo >= target:
		return TargetCertain
	case hi < target:
		return TargetImpossible
	default:
		return TargetUncertain
	}
}

// TargetVerdict classifies a speedup goal against interval bounds.
type TargetVerdict int

const (
	// TargetImpossible: even the optimistic corner misses the goal.
	TargetImpossible TargetVerdict = iota
	// TargetUncertain: the goal falls inside the interval; the
	// estimates must be refined (or the design revised) to decide.
	TargetUncertain
	// TargetCertain: even the pessimistic corner meets the goal.
	TargetCertain
)

// String implements fmt.Stringer.
func (v TargetVerdict) String() string {
	switch v {
	case TargetCertain:
		return "certain"
	case TargetUncertain:
		return "uncertain"
	case TargetImpossible:
		return "impossible"
	default:
		return fmt.Sprintf("TargetVerdict(%d)", int(v))
	}
}
