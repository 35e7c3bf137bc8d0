package core_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
)

// TestPredictIntoMatchesPredict: the in-place path is the scalar path.
func TestPredictIntoMatchesPredict(t *testing.T) {
	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		p := paper.Params(c)
		want, err := core.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		var got core.Prediction
		if err := core.PredictInto(p, &got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: PredictInto = %+v, want %+v", p.Name, got, want)
		}
	}
}

// overflowParams is a worksheet whose every field validates but whose
// derived times overflow: t_write is +Inf.
func overflowParams() core.Parameters {
	p := paper.PDF1DParams()
	p.Dataset.BytesPerElement = 1e300
	p.Dataset.ElementsIn = 1 << 40
	return p
}

// TestPredictIntoZeroesOnError: failed validation, or a result that
// overflowed, must not leave stale data in reused storage.
func TestPredictIntoZeroesOnError(t *testing.T) {
	bad := paper.PDF1DParams()
	bad.Comp.ClockHz = 0
	for _, bad := range []core.Parameters{bad, overflowParams()} {
		var out core.Prediction
		if err := core.PredictInto(paper.PDF1DParams(), &out); err != nil {
			t.Fatal(err)
		}
		if err := core.PredictInto(bad, &out); !errors.Is(err, core.ErrInvalidParameters) {
			t.Fatalf("err = %v, want ErrInvalidParameters", err)
		}
		if out != (core.Prediction{}) {
			t.Errorf("failed PredictInto left stale prediction %+v", out)
		}
	}
}

// TestPredictBatchMatchesScalar: every batch cell is bit-for-bit the
// scalar prediction, across all three paper case studies and a clock
// sweep of each.
func TestPredictBatchMatchesScalar(t *testing.T) {
	var ps []core.Parameters
	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		for _, hz := range paper.ClocksHz {
			ps = append(ps, paper.Params(c).WithClock(hz))
		}
	}
	out := make([]core.Prediction, len(ps))
	if err := core.PredictBatch(ps, out); err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		want := core.MustPredict(p)
		if out[i] != want {
			t.Errorf("batch[%d] (%s at %g MHz) = %+v, want %+v",
				i, p.Name, p.Comp.ClockHz/1e6, out[i], want)
		}
	}
}

// TestPredictBatchValidation: short output slices and invalid members
// are rejected up front, with the failing index named and no partial
// writes.
func TestPredictBatchValidation(t *testing.T) {
	ps := []core.Parameters{paper.PDF1DParams(), paper.PDF2DParams()}
	if err := core.PredictBatch(ps, make([]core.Prediction, 1)); !errors.Is(err, core.ErrInvalidParameters) {
		t.Errorf("short output: err = %v, want ErrInvalidParameters", err)
	}

	bad := paper.PDF2DParams()
	bad.Comm.AlphaRead = 2
	out := make([]core.Prediction, 2)
	err := core.PredictBatch([]core.Parameters{paper.PDF1DParams(), bad}, out)
	if !errors.Is(err, core.ErrInvalidParameters) {
		t.Fatalf("err = %v, want ErrInvalidParameters", err)
	}
	if out[0] != (core.Prediction{}) {
		t.Error("failed batch wrote partial results before the invalid index")
	}

	// A result that overflows stops the batch at its index: the
	// predictions before it are written, those after it are not.
	out = make([]core.Prediction, 3)
	err = core.PredictBatch([]core.Parameters{paper.PDF1DParams(), overflowParams(), paper.MDParams()}, out)
	if !errors.Is(err, core.ErrInvalidParameters) || !strings.HasPrefix(err.Error(), "batch index 1: ") || !strings.Contains(err.Error(), "TWrite") {
		t.Fatalf("overflow: err = %v, want an ErrInvalidParameters error naming batch index 1 and TWrite", err)
	}
	if out[0] != core.MustPredict(paper.PDF1DParams()) || out[2] != (core.Prediction{}) {
		t.Errorf("overflow: batch left out[0] = %+v, out[2] = %+v", out[0], out[2])
	}

	// Empty batches are fine.
	if err := core.PredictBatch(nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestPredictBatchZeroAlloc: the steady-state batch path allocates
// nothing per evaluation.
func TestPredictBatchZeroAlloc(t *testing.T) {
	ps := make([]core.Parameters, 64)
	for i := range ps {
		ps[i] = paper.PDF1DParams().WithClock(core.MHz(50 + float64(i)))
	}
	out := make([]core.Prediction, len(ps))
	allocs := testing.AllocsPerRun(100, func() {
		if err := core.PredictBatch(ps, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PredictBatch allocates %.1f times per call, want 0", allocs)
	}
}
