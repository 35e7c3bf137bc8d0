package core

import (
	"errors"
	"fmt"
)

// ErrUnreachable is returned by the inverse solvers when no value of
// the free parameter can reach the requested speedup, because the fixed
// part of the execution time (usually communication) already exceeds
// the time budget the target allows.
var ErrUnreachable = errors.New("rat/core: target speedup unreachable")

// solveTarget converts a desired speedup into the per-iteration time
// budget it implies.
func solveTarget(p Parameters, speedup float64) (perIter float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if speedup <= 0 {
		return 0, fmt.Errorf("%w: speedup target must be positive (got %v)", ErrInvalidParameters, speedup)
	}
	if p.Soft.TSoft <= 0 {
		return 0, fmt.Errorf("%w: Soft.TSoft must be positive to solve for a speedup target", ErrInvalidParameters)
	}
	return p.Soft.TSoft / speedup / float64(p.Soft.Iterations), nil
}

// commTime evaluates Eqs. (1)-(3) alone.
func commTime(p Parameters) float64 {
	return p.BytesIn()/(p.Comm.AlphaWrite*p.Comm.IdealThroughput) +
		p.BytesOut()/(p.Comm.AlphaRead*p.Comm.IdealThroughput)
}

// compBudget returns the largest per-iteration computation time that
// still meets the per-iteration budget under the given buffering
// discipline, or ErrUnreachable when communication alone blows the
// budget.
func compBudget(p Parameters, b Buffering, perIter float64) (float64, error) {
	tcomm := commTime(p)
	var budget float64
	switch b {
	case DoubleBuffered:
		// Eq. (6): need max(tcomm, tcomp) <= perIter.
		budget = perIter
	default:
		// Eq. (5): need tcomm + tcomp <= perIter.
		budget = perIter - tcomm
	}
	if tcomm > perIter || budget <= 0 {
		return 0, fmt.Errorf("%w: communication alone takes %.3e s of the %.3e s per-iteration budget (%s)",
			ErrUnreachable, tcomm, perIter, b)
	}
	return budget, nil
}

// SolveThroughputProc treats throughput_proc as an independent variable
// and returns the smallest sustained operations-per-cycle that achieves
// the desired speedup under the given buffering discipline, holding
// every other parameter fixed.
//
// This is the usage the paper applies to the molecular-dynamics case
// study: for data-dependent algorithms whose operation rate cannot be
// predicted, the solved value tells the designer how much parallelism a
// design must sustain to succeed (Section 3.1). With the paper's MD
// parameters at 100 MHz and a 10x goal it yields ~46.7 ops/cycle, which
// the authors round up to the headline 50.
func SolveThroughputProc(p Parameters, targetSpeedup float64, b Buffering) (float64, error) {
	perIter, err := solveTarget(p, targetSpeedup)
	if err != nil {
		return 0, err
	}
	budget, err := compBudget(p, b, perIter)
	if err != nil {
		return 0, err
	}
	// Invert Eq. (4) for throughput_proc.
	return float64(p.Dataset.ElementsIn) * p.Comp.OpsPerElement / (p.Comp.ClockHz * budget), nil
}

// SolveClock returns the smallest FPGA clock frequency (Hz) that
// achieves the desired speedup, holding every other parameter fixed.
// Useful when the design's parallelism is known but the routed clock is
// the open question.
func SolveClock(p Parameters, targetSpeedup float64, b Buffering) (float64, error) {
	perIter, err := solveTarget(p, targetSpeedup)
	if err != nil {
		return 0, err
	}
	budget, err := compBudget(p, b, perIter)
	if err != nil {
		return 0, err
	}
	// Invert Eq. (4) for f_clock.
	return float64(p.Dataset.ElementsIn) * p.Comp.OpsPerElement / (p.Comp.ThroughputProc * budget), nil
}

// SolveAlpha returns the smallest sustained interconnect fraction
// (applied to both directions) that achieves the desired speedup,
// holding everything else fixed. It answers "how good must the
// interconnect be": a result above 1 means no interconnect of this
// ideal bandwidth suffices. Only the communication side of the budget
// is free, so under single buffering the computation time must already
// fit; otherwise ErrUnreachable is returned. A worksheet that Predict
// refuses, because a derived quantity overflows, gets Predict's error.
func SolveAlpha(p Parameters, targetSpeedup float64, b Buffering) (float64, error) {
	perIter, err := solveTarget(p, targetSpeedup)
	if err != nil {
		return 0, err
	}
	pr, err := Predict(p)
	if err != nil {
		return 0, err
	}
	var commBudget float64
	switch b {
	case DoubleBuffered:
		commBudget = perIter
	default:
		commBudget = perIter - pr.TComp
	}
	if commBudget <= 0 {
		return 0, fmt.Errorf("%w: computation alone takes %.3e s of the %.3e s per-iteration budget (%s)",
			ErrUnreachable, pr.TComp, perIter, b)
	}
	// With a common alpha in both directions,
	// t_comm = (bytesIn + bytesOut) / (alpha * throughput_ideal).
	alpha := (p.BytesIn() + p.BytesOut()) / (p.Comm.IdealThroughput * commBudget)
	return alpha, nil
}

// RequiredTSoft returns the software baseline time that would make the
// current design exactly meet the target speedup — the break-even
// question inverted: "how slow does software have to be for this
// migration to pay off at factor k". Like SolveAlpha, it returns
// Predict's error for a worksheet whose derived quantities overflow.
func RequiredTSoft(p Parameters, targetSpeedup float64, b Buffering) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if targetSpeedup <= 0 {
		return 0, fmt.Errorf("%w: speedup target must be positive (got %v)", ErrInvalidParameters, targetSpeedup)
	}
	pr, err := Predict(p)
	if err != nil {
		return 0, err
	}
	return targetSpeedup * pr.TRC(b), nil
}

// CrossoverClock returns the FPGA clock frequency (Hz) at which the
// per-iteration computation time equals the communication time — the
// boundary between the communication-bound and computation-bound
// regimes for a double-buffered design. Above this clock the design is
// interconnect-limited and additional computational parallelism buys
// nothing.
func CrossoverClock(p Parameters) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	tcomm := commTime(p)
	return float64(p.Dataset.ElementsIn) * p.Comp.OpsPerElement / (p.Comp.ThroughputProc * tcomm), nil
}
