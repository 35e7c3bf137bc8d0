package core

import (
	"fmt"
	"math"
)

// Buffering selects the communication/computation overlap discipline
// modelled by the throughput test (Figure 2 of the paper).
type Buffering int

const (
	// SingleBuffered: one buffer, no overlap; each iteration is a
	// read, a compute and a write laid end to end (Eq. 5).
	SingleBuffered Buffering = iota
	// DoubleBuffered: two buffers keep I/O and processing busy
	// simultaneously; in steady state the smaller of t_comm and
	// t_comp hides completely behind the larger (Eq. 6). The model
	// neglects the pipeline-fill startup cost, which the paper deems
	// negligible for a sufficiently large number of iterations.
	DoubleBuffered
)

// String implements fmt.Stringer.
func (b Buffering) String() string {
	switch b {
	case SingleBuffered:
		return "single-buffered"
	case DoubleBuffered:
		return "double-buffered"
	default:
		return fmt.Sprintf("Buffering(%d)", int(b))
	}
}

// Prediction is the full output of the RAT throughput test for one
// parameter set: the per-iteration component times, the end-to-end RC
// execution times and speedups under both buffering disciplines, and
// the utilization metrics of Eqs. 8-11. All times are seconds.
type Prediction struct {
	Params Parameters

	// Per-iteration communication components (Eqs. 1-3).
	TWrite float64 // host -> FPGA input transfer
	TRead  float64 // FPGA -> host result transfer
	TComm  float64 // TWrite + TRead

	// Per-iteration computation time (Eq. 4).
	TComp float64

	// End-to-end RC execution times (Eqs. 5-6).
	TRCSingle float64
	TRCDouble float64

	// Speedups over the software baseline (Eq. 7). Zero when no
	// baseline time was supplied (TSoft == 0).
	SpeedupSingle float64
	SpeedupDouble float64

	// Utilizations (Eqs. 8-11): fraction of execution time spent in
	// computation / communication under each discipline.
	UtilCompSB float64
	UtilCommSB float64
	UtilCompDB float64
	UtilCommDB float64
}

// Predict evaluates Eqs. (1)-(11) of the paper for the given
// parameters. It is the forward direction of the RAT throughput test:
// parameters in, predicted times, speedups and utilizations out. A
// worksheet that validates but whose derived quantities overflow is
// refused with CheckFinite's error.
func Predict(p Parameters) (Prediction, error) {
	if err := p.Validate(); err != nil {
		return Prediction{}, err
	}
	var pr Prediction
	predictInto(p, &pr)
	if !pr.finite() {
		return Prediction{}, pr.CheckFinite()
	}
	return pr, nil
}

// predictInto evaluates Eqs. (1)-(11) for already-validated parameters
// into *pr. It is the shared computation kernel behind Predict, the
// batch path and the sweeps; it performs no allocation, so hot loops
// (a design-space search calls it millions of times) can evaluate into
// caller-owned storage.
func predictInto(p Parameters, pr *Prediction) {
	pr.Params = p

	// Eqs. (2)-(3): each direction sustains only the fraction alpha
	// of the documented interconnect bandwidth.
	pr.TWrite = p.BytesIn() / (p.Comm.AlphaWrite * p.Comm.IdealThroughput)
	pr.TRead = p.BytesOut() / (p.Comm.AlphaRead * p.Comm.IdealThroughput)
	// Eq. (1).
	pr.TComm = pr.TRead + pr.TWrite

	// Eq. (4): time to operate on one buffered block of elements.
	pr.TComp = float64(p.Dataset.ElementsIn) * p.Comp.OpsPerElement /
		(p.Comp.ClockHz * p.Comp.ThroughputProc)

	iters := float64(p.Soft.Iterations)
	// Eq. (5).
	pr.TRCSingle = iters * (pr.TComm + pr.TComp)
	// Eq. (6).
	pr.TRCDouble = iters * math.Max(pr.TComm, pr.TComp)

	// Eq. (7): speedup compares total application times.
	pr.SpeedupSingle, pr.SpeedupDouble = 0, 0
	if p.Soft.TSoft > 0 {
		pr.SpeedupSingle = p.Soft.TSoft / pr.TRCSingle
		pr.SpeedupDouble = p.Soft.TSoft / pr.TRCDouble
	}

	// Eqs. (8)-(9).
	sum := pr.TComm + pr.TComp
	pr.UtilCompSB = pr.TComp / sum
	pr.UtilCommSB = pr.TComm / sum
	// Eqs. (10)-(11). Only meaningful with enough iterations for
	// steady state; the caller owns that judgement.
	mx := math.Max(pr.TComm, pr.TComp)
	pr.UtilCompDB = pr.TComp / mx
	pr.UtilCommDB = pr.TComm / mx
}

// MustPredict is Predict for parameter sets known to be valid, such as
// package-level canonical worksheets; it panics on any error Predict
// returns, a validation failure or a derived quantity that overflows.
// Code serving client input calls Predict.
func MustPredict(p Parameters) Prediction {
	pr, err := Predict(p)
	if err != nil {
		//rat:allow-panic Must-style wrapper documented to panic on Predict's errors
		panic(err)
	}
	return pr
}

// TRC returns the predicted end-to-end RC execution time under the
// given buffering discipline.
func (pr Prediction) TRC(b Buffering) float64 {
	if b == DoubleBuffered {
		return pr.TRCDouble
	}
	return pr.TRCSingle
}

// Speedup returns the predicted speedup under the given buffering
// discipline (zero when no software baseline was supplied).
func (pr Prediction) Speedup(b Buffering) float64 {
	if b == DoubleBuffered {
		return pr.SpeedupDouble
	}
	return pr.SpeedupSingle
}

// UtilComp returns the computation utilization under the given
// discipline. High values mean the FPGA is rarely idle; low values
// signal room for more speedup through less (or better overlapped)
// communication.
func (pr Prediction) UtilComp(b Buffering) float64 {
	if b == DoubleBuffered {
		return pr.UtilCompDB
	}
	return pr.UtilCompSB
}

// UtilComm returns the communication utilization under the given
// discipline. Because the channel is a single serialized resource,
// 1-UtilComm is the fraction of interconnect bandwidth left to
// facilitate additional transfers.
func (pr Prediction) UtilComm(b Buffering) float64 {
	if b == DoubleBuffered {
		return pr.UtilCommDB
	}
	return pr.UtilCommSB
}

// CommunicationBound reports whether the per-iteration communication
// time exceeds the computation time, i.e. whether a double-buffered
// implementation would be limited by the interconnect.
func (pr Prediction) CommunicationBound() bool { return pr.TComm > pr.TComp }

// SustainedOps returns the operation rate the design sustains across
// the whole run, in operations per second, under the given discipline.
func (pr Prediction) SustainedOps(b Buffering) float64 {
	return pr.Params.TotalOps() / pr.TRC(b)
}

// MaxSpeedup returns the asymptotic speedup limit of the design as
// computation becomes infinitely fast (throughput_proc -> inf): the run
// degenerates to pure communication, so no reformulation of the
// computation alone can beat t_soft / (N_iter * t_comm). A design whose
// target exceeds this bound must reduce or overlap communication, not
// add parallelism.
func (pr Prediction) MaxSpeedup() float64 {
	if pr.Params.Soft.TSoft <= 0 {
		return 0
	}
	return pr.Params.Soft.TSoft / (float64(pr.Params.Soft.Iterations) * pr.TComm)
}

// predictionFields names the derived quantities CheckFinite inspects,
// in the order it inspects them.
var predictionFields = [...]string{
	"TWrite", "TRead", "TComm", "TComp", "TRCSingle", "TRCDouble",
	"SpeedupSingle", "SpeedupDouble",
	"UtilCompSB", "UtilCommSB", "UtilCompDB", "UtilCommDB",
}

// CheckFinite returns nil when every derived quantity of the
// prediction is a finite number, else an error wrapping
// ErrInvalidParameters that names the first one that is not.
// Validate checks the inputs one field at a time, so a worksheet whose
// every field is in range can still overflow a product:
// BytesPerElement 1e300 with ElementsIn 2^40 makes TWrite +Inf and
// UtilCommSB NaN. The kernel entry points (Predict, PredictInto,
// PredictMulti, PredictBatch) return this error, so such a worksheet
// is a client error rather than a non-finite answer.
func (pr Prediction) CheckFinite() error {
	// x*0 is 0 for finite x and NaN for an infinity or NaN, so one
	// branch-free sum clears the common case; only a failure walks
	// the quantities to name one.
	if pr.TWrite*0+pr.TRead*0+pr.TComm*0+pr.TComp*0+pr.TRCSingle*0+pr.TRCDouble*0+
		pr.SpeedupSingle*0+pr.SpeedupDouble*0+
		pr.UtilCompSB*0+pr.UtilCommSB*0+pr.UtilCompDB*0+pr.UtilCommDB*0 == 0 {
		return nil
	}
	return firstNonFinite(predictionFields[:],
		pr.TWrite, pr.TRead, pr.TComm, pr.TComp, pr.TRCSingle, pr.TRCDouble,
		pr.SpeedupSingle, pr.SpeedupDouble,
		pr.UtilCompSB, pr.UtilCommSB, pr.UtilCompDB, pr.UtilCommDB)
}

// finite reports whether every derived quantity of a prediction that
// predictInto computed from validated parameters is a finite number.
// Those inputs are finite and non-negative with at least one
// iteration, so three quantities decide all twelve:
//   - TRCSingle = iters*(TComm+TComp) is finite only if TWrite, TRead,
//     TComm and TComp are, and it bounds TRCDouble;
//   - SpeedupDouble bounds SpeedupSingle, as TRCDouble <= TRCSingle;
//   - UtilCompSB is NaN exactly when TComm+TComp is 0, the only case
//     in which a utilization falls outside [0, 1].
//
// x*0 is 0 for finite x and NaN otherwise, so one sum decides. The
// pointer receiver checks the result in place rather than copying it.
// TestPredictRefusesExactlyNonFinite pins the equivalence with
// CheckFinite, which tests all twelve of any prediction.
func (pr *Prediction) finite() bool {
	return pr.TRCSingle*0+pr.SpeedupDouble*0+pr.UtilCompSB*0 == 0
}

// firstNonFinite returns the invalid-parameters error naming the first
// of vs that is NaN or infinite; names[i] names vs[i].
func firstNonFinite(names []string, vs ...float64) error {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return paramError(names[i], "must be finite", v)
		}
	}
	return nil
}
