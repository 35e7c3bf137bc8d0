package core

import "fmt"

// Batch evaluation of the throughput test. A design-space search calls
// the forward prediction millions of times; the batch path amortizes
// validation ahead of the arithmetic and writes every result into
// caller-provided storage, so the steady state performs zero heap
// allocations per evaluation. The per-candidate numbers are produced by
// the same computation kernel as Predict and are bit-for-bit identical
// to the scalar results.

// PredictInto evaluates Eqs. (1)-(11) into *out without allocating.
// It is Predict for callers that own the result storage (preallocated
// slices, arena-style buffers), and it refuses what Predict refuses.
// On any error *out is zeroed.
//
//rat:hotpath
func PredictInto(p Parameters, out *Prediction) error {
	err := p.Validate()
	if err == nil {
		predictInto(p, out)
		if out.finite() {
			return nil
		}
		err = out.CheckFinite()
	}
	*out = Prediction{}
	return err
}

// PredictBatch evaluates the throughput test for every parameter set in
// ps, writing prediction i into out[i]. The output slice must be at
// least as long as the input; extra entries are left untouched. All
// parameter sets are validated up front — on the first failure the
// error names the offending index and nothing is written — and then the
// whole batch is computed with zero allocations. out[i] is bit-for-bit
// identical to the result of Predict(ps[i]). A prediction that
// overflows stops the batch with CheckFinite's error, prefixed with
// its index: out holds the predictions up to and including that
// index, the failing one as computed, and later entries are untouched.
//
//rat:hotpath
func PredictBatch(ps []Parameters, out []Prediction) error {
	if len(out) < len(ps) {
		return fmt.Errorf("%w: output slice holds %d predictions for %d parameter sets",
			ErrInvalidParameters, len(out), len(ps))
	}
	for i := range ps {
		if err := ps[i].Validate(); err != nil {
			return fmt.Errorf("batch index %d: %w", i, err)
		}
	}
	for i := range ps {
		predictInto(ps[i], &out[i])
		if !out[i].finite() {
			return fmt.Errorf("batch index %d: %w", i, out[i].CheckFinite())
		}
	}
	return nil
}
