package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
)

// roundSig rounds x to n significant figures, mirroring how the paper
// prints times (three significant figures in scientific notation).
func roundSig(x float64, n int) float64 {
	if x == 0 {
		return 0
	}
	mag := math.Pow(10, float64(n-1)-math.Floor(math.Log10(math.Abs(x))))
	return math.Round(x*mag) / mag
}

// round1 rounds to one decimal place, how the paper prints speedups.
func round1(x float64) float64 { return math.Round(x*10) / 10 }

// utilTol returns half a ULP of the paper's printed utilization
// precision: integer percent normally, tenths of a percent for the
// sub-1% MD utilizations.
func utilTol(printed float64) float64 {
	if printed < 0.01 {
		return 0.0005
	}
	return 0.005
}

// ulp returns one unit in the last printed digit of a paper value with
// n significant figures. The paper computes some table cells from
// already-rounded components (its walkthrough literally writes t_RC =
// 400*(5.56E-6 + 1.31E-4) = 5.46E-2, where exact arithmetic gives
// 5.4653E-2 -> 5.47E-2), so golden comparisons allow one final-digit
// unit of slack.
func ulp(printed float64, n int) float64 {
	if printed == 0 {
		return 0
	}
	return math.Pow(10, math.Floor(math.Log10(math.Abs(printed)))-float64(n-1))
}

// closeToPrinted reports whether got, rounded to n significant figures,
// is within one last-digit unit of the paper's printed value.
func closeToPrinted(got, printed float64, n int) bool {
	return math.Abs(roundSig(got, n)-printed) <= ulp(printed, n)*(1+1e-9)
}

// TestPredictReproducesPaperTables is the central golden test: for each
// case study and each clock frequency, the predicted column of the
// paper's performance table (Tables 3, 6 and 9) must be reproduced to
// the paper's printed precision.
func TestPredictReproducesPaperTables(t *testing.T) {
	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		t.Run(string(c), func(t *testing.T) {
			params := paper.Params(c)
			for _, row := range paper.PredictedRows(c) {
				pr, err := core.Predict(params.WithClock(row.ClockHz))
				if err != nil {
					t.Fatalf("Predict: %v", err)
				}
				mhz := row.ClockHz / 1e6
				// Component times must match exactly at printed precision.
				if got := roundSig(pr.TComm, 3); got != row.TComm {
					t.Errorf("%.0f MHz: t_comm = %.3e, paper prints %.3e", mhz, got, row.TComm)
				}
				if got := roundSig(pr.TComp, 3); got != row.TComp {
					t.Errorf("%.0f MHz: t_comp = %.3e, paper prints %.3e", mhz, got, row.TComp)
				}
				// Derived cells allow one final-digit unit because the
				// paper computes them from rounded components.
				if !closeToPrinted(pr.TRCSingle, row.TRC, 3) {
					t.Errorf("%.0f MHz: t_RC(SB) = %.3e, paper prints %.3e", mhz, pr.TRCSingle, row.TRC)
				}
				// Speedup prints with one decimal; allow 0.1 slack.
				if math.Abs(round1(pr.SpeedupSingle)-row.Speedup) > 0.1+1e-9 {
					t.Errorf("%.0f MHz: speedup = %.2f, paper prints %.1f", mhz, pr.SpeedupSingle, row.Speedup)
				}
				if d := math.Abs(pr.UtilCommSB - row.UtilComm); d > utilTol(row.UtilComm) {
					t.Errorf("%.0f MHz: util_comm(SB) = %.4f, paper prints %.4f (|d|=%.4f)", mhz, pr.UtilCommSB, row.UtilComm, d)
				}
				if row.UtilComp >= 0 {
					if d := math.Abs(pr.UtilCompSB - row.UtilComp); d > utilTol(row.UtilComp) {
						t.Errorf("%.0f MHz: util_comp(SB) = %.4f, paper prints %.4f", mhz, pr.UtilCompSB, row.UtilComp)
					}
				}
			}
		})
	}
}

// TestWalkthroughArithmetic spot-checks the worked example of Section
// 4.3 digit for digit: 512*768 = 393216 ops, 3e9 ops/s at 150 MHz and
// 20 ops/cycle, t_comp = 1.31e-4 s, t_RC(SB) = 400*(5.56e-6+1.31e-4) =
// 5.46e-2 s.
func TestWalkthroughArithmetic(t *testing.T) {
	pr := core.MustPredict(paper.PDF1DParams()) // 150 MHz canonical

	if ops := float64(512) * 768; ops != 393216 {
		t.Fatalf("ops per iteration = %v, want 393216", ops)
	}
	rate := 150e6 * 20
	if rate != 3e9 {
		t.Fatalf("op rate = %v, want 3e9", rate)
	}
	if got := 393216 / rate; math.Abs(got-pr.TComp) > 1e-12 {
		t.Errorf("t_comp = %g, hand computation gives %g", pr.TComp, got)
	}
	// The walkthrough computes t_RC from rounded components:
	// 400*(5.56E-6 + 1.31E-4) = 5.46E-2. Exact arithmetic gives
	// 5.4653E-2; both must agree within one printed-digit unit.
	if !closeToPrinted(pr.TRCSingle, 5.46e-2, 3) {
		t.Errorf("t_RC(SB) = %.4e, walkthrough prints 5.46E-2", pr.TRCSingle)
	}
}

// TestCommDirections checks that the write path carries the input block
// and the read path carries the output block, at their respective
// sustained fractions (the 1-D PDF case makes the two directions very
// asymmetric: 512 elements out, 1 element back).
func TestCommDirections(t *testing.T) {
	pr := core.MustPredict(paper.PDF1DParams())
	wantWrite := 512.0 * 4 / (0.37 * 1e9)
	wantRead := 1.0 * 4 / (0.16 * 1e9)
	if math.Abs(pr.TWrite-wantWrite) > 1e-15 {
		t.Errorf("TWrite = %g, want %g", pr.TWrite, wantWrite)
	}
	if math.Abs(pr.TRead-wantRead) > 1e-15 {
		t.Errorf("TRead = %g, want %g", pr.TRead, wantRead)
	}
	if math.Abs(pr.TComm-(wantWrite+wantRead)) > 1e-15 {
		t.Errorf("TComm = %g, want sum %g", pr.TComm, wantWrite+wantRead)
	}
}

func TestBufferingDisciplines(t *testing.T) {
	p := paper.PDF2DParams()
	pr := core.MustPredict(p)

	iters := float64(p.Soft.Iterations)
	if want := iters * (pr.TComm + pr.TComp); math.Abs(pr.TRCSingle-want) > 1e-12*want {
		t.Errorf("TRCSingle = %g, want %g", pr.TRCSingle, want)
	}
	if want := iters * math.Max(pr.TComm, pr.TComp); math.Abs(pr.TRCDouble-want) > 1e-12*want {
		t.Errorf("TRCDouble = %g, want %g", pr.TRCDouble, want)
	}
	if pr.TRC(core.SingleBuffered) != pr.TRCSingle || pr.TRC(core.DoubleBuffered) != pr.TRCDouble {
		t.Error("TRC accessor disagrees with fields")
	}
	if pr.Speedup(core.SingleBuffered) != pr.SpeedupSingle || pr.Speedup(core.DoubleBuffered) != pr.SpeedupDouble {
		t.Error("Speedup accessor disagrees with fields")
	}
}

func TestUtilizationIdentities(t *testing.T) {
	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		pr := core.MustPredict(paper.Params(c))
		if s := pr.UtilCommSB + pr.UtilCompSB; math.Abs(s-1) > 1e-12 {
			t.Errorf("%s: SB utilizations sum to %g, want 1", c, s)
		}
		if m := math.Max(pr.UtilCommDB, pr.UtilCompDB); math.Abs(m-1) > 1e-12 {
			t.Errorf("%s: max DB utilization = %g, want 1", c, m)
		}
		if pr.UtilComm(core.SingleBuffered) != pr.UtilCommSB || pr.UtilComp(core.DoubleBuffered) != pr.UtilCompDB {
			t.Errorf("%s: utilization accessors disagree with fields", c)
		}
	}
}

// TestComputeBoundClassification: all three case studies are
// compute-bound at every studied clock (communication utilization <=
// 4%), so CommunicationBound must be false throughout; shrinking the
// problem to one element makes the 1-D PDF comm-bound.
func TestComputeBoundClassification(t *testing.T) {
	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		for _, f := range paper.ClocksHz {
			pr := core.MustPredict(paper.Params(c).WithClock(f))
			if pr.CommunicationBound() {
				t.Errorf("%s at %.0f MHz: unexpectedly communication-bound", c, f/1e6)
			}
		}
	}
	p := paper.PDF1DParams()
	p.Dataset.ElementsIn = 1
	p.Comp.OpsPerElement = 3
	if pr := core.MustPredict(p); !pr.CommunicationBound() {
		t.Error("degenerate 1-element design should be communication-bound")
	}
}

func TestMaxSpeedup(t *testing.T) {
	p := paper.PDF1DParams()
	pr := core.MustPredict(p)
	limit := pr.MaxSpeedup()
	if limit <= pr.SpeedupSingle {
		t.Fatalf("MaxSpeedup %g must exceed achieved speedup %g", limit, pr.SpeedupSingle)
	}
	// Pushing throughput_proc very high must approach but not exceed
	// the limit.
	fast := core.MustPredict(p.WithThroughputProc(1e9))
	if fast.SpeedupDouble > limit*(1+1e-9) {
		t.Errorf("speedup %g exceeded asymptotic limit %g", fast.SpeedupDouble, limit)
	}
	if fast.SpeedupDouble < limit*0.99 {
		t.Errorf("speedup %g should approach limit %g with huge parallelism", fast.SpeedupDouble, limit)
	}
	// Without a baseline there is no speedup limit to report.
	p.Soft.TSoft = 0
	if got := core.MustPredict(p).MaxSpeedup(); got != 0 {
		t.Errorf("MaxSpeedup without baseline = %g, want 0", got)
	}
}

func TestSustainedOps(t *testing.T) {
	p := paper.MDParams()
	pr := core.MustPredict(p)
	// MD at 150 MHz and 50 ops/cycle peaks at 7.5 GOPS; sustained
	// must be slightly below due to communication.
	peak := 7.5e9
	got := pr.SustainedOps(core.SingleBuffered)
	if got >= peak || got < 0.98*peak {
		t.Errorf("sustained ops = %g, want slightly below peak %g", got, peak)
	}
	// Double-buffered MD hides its tiny t_comm entirely.
	if db := pr.SustainedOps(core.DoubleBuffered); math.Abs(db-peak) > 1e-3*peak {
		t.Errorf("DB sustained ops = %g, want peak %g", db, peak)
	}
}

func TestPredictWithoutBaseline(t *testing.T) {
	p := paper.PDF1DParams()
	p.Soft.TSoft = 0
	pr, err := core.Predict(p)
	if err != nil {
		t.Fatalf("TSoft=0 must be allowed (prediction without baseline): %v", err)
	}
	if pr.SpeedupSingle != 0 || pr.SpeedupDouble != 0 {
		t.Errorf("speedups without baseline = %g/%g, want 0/0", pr.SpeedupSingle, pr.SpeedupDouble)
	}
	if pr.TRCSingle <= 0 {
		t.Error("execution time must still be predicted without a baseline")
	}
}

func TestMustPredictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustPredict on invalid parameters must panic")
		}
	}()
	core.MustPredict(core.Parameters{})
}

func TestBufferingString(t *testing.T) {
	if core.SingleBuffered.String() != "single-buffered" {
		t.Errorf("SingleBuffered.String() = %q", core.SingleBuffered.String())
	}
	if core.DoubleBuffered.String() != "double-buffered" {
		t.Errorf("DoubleBuffered.String() = %q", core.DoubleBuffered.String())
	}
	if got := core.Buffering(42).String(); got != "Buffering(42)" {
		t.Errorf("unknown Buffering.String() = %q", got)
	}
}

func TestValidate(t *testing.T) {
	base := paper.PDF1DParams()
	cases := []struct {
		name   string
		mutate func(*core.Parameters)
	}{
		{"zero elements in", func(p *core.Parameters) { p.Dataset.ElementsIn = 0 }},
		{"negative elements in", func(p *core.Parameters) { p.Dataset.ElementsIn = -4 }},
		{"negative elements out", func(p *core.Parameters) { p.Dataset.ElementsOut = -1 }},
		{"zero bytes per element", func(p *core.Parameters) { p.Dataset.BytesPerElement = 0 }},
		{"NaN bytes per element", func(p *core.Parameters) { p.Dataset.BytesPerElement = math.NaN() }},
		{"inf bytes per element", func(p *core.Parameters) { p.Dataset.BytesPerElement = math.Inf(1) }},
		{"zero ideal throughput", func(p *core.Parameters) { p.Comm.IdealThroughput = 0 }},
		{"alpha write zero", func(p *core.Parameters) { p.Comm.AlphaWrite = 0 }},
		{"alpha write above one", func(p *core.Parameters) { p.Comm.AlphaWrite = 1.2 }},
		{"alpha read negative", func(p *core.Parameters) { p.Comm.AlphaRead = -0.1 }},
		{"alpha read above one", func(p *core.Parameters) { p.Comm.AlphaRead = 2 }},
		{"zero ops per element", func(p *core.Parameters) { p.Comp.OpsPerElement = 0 }},
		{"zero throughput proc", func(p *core.Parameters) { p.Comp.ThroughputProc = 0 }},
		{"zero clock", func(p *core.Parameters) { p.Comp.ClockHz = 0 }},
		{"NaN clock", func(p *core.Parameters) { p.Comp.ClockHz = math.NaN() }},
		{"negative tsoft", func(p *core.Parameters) { p.Soft.TSoft = -1 }},
		{"NaN tsoft", func(p *core.Parameters) { p.Soft.TSoft = math.NaN() }},
		{"zero iterations", func(p *core.Parameters) { p.Soft.Iterations = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mutate(&p)
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate accepted invalid parameters")
			}
			if !errors.Is(err, core.ErrInvalidParameters) {
				t.Errorf("error %v does not wrap ErrInvalidParameters", err)
			}
			if _, err := core.Predict(p); err == nil {
				t.Error("Predict accepted invalid parameters")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Errorf("canonical worksheet rejected: %v", err)
	}
}

func TestDerivedQuantities(t *testing.T) {
	p := paper.MDParams()
	if got := p.BytesIn(); got != 16384*36 {
		t.Errorf("BytesIn = %g, want %d", got, 16384*36)
	}
	if got := p.BytesOut(); got != 16384*36 {
		t.Errorf("BytesOut = %g, want %d", got, 16384*36)
	}
	if got := p.TotalOps(); got != 16384*164000 {
		t.Errorf("TotalOps = %g, want %d", got, int64(16384)*164000)
	}
	q := paper.PDF1DParams()
	if got := q.TotalOps(); got != 400*512*768 {
		t.Errorf("TotalOps = %g, want %d", got, 400*512*768)
	}
}

// TestCheckFinite: a worksheet whose every field passes Validate can
// still overflow a derived quantity; Predict and PredictMulti refuse
// it with CheckFinite's invalid-parameters error, which names the
// first non-finite quantity.
func TestCheckFinite(t *testing.T) {
	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		pr := core.MustPredict(paper.Params(c))
		if err := pr.CheckFinite(); err != nil {
			t.Errorf("%s: canonical prediction rejected: %v", c, err)
		}
		mp, err := core.PredictMulti(paper.Params(c), core.MultiConfig{Devices: 4, Topology: core.SharedChannel})
		if err != nil {
			t.Fatal(err)
		}
		if err := mp.CheckFinite(); err != nil {
			t.Errorf("%s: canonical multi prediction rejected: %v", c, err)
		}
	}

	p := overflowParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("overflowing worksheet must pass field validation: %v", err)
	}
	pr, err := core.Predict(p)
	if !errors.Is(err, core.ErrInvalidParameters) {
		t.Fatalf("Predict = %+v, %v; want an ErrInvalidParameters error", pr, err)
	}
	if !strings.Contains(err.Error(), "TWrite") {
		t.Errorf("Predict error %q does not name TWrite, the first non-finite quantity", err)
	}
	mp, err := core.PredictMulti(p, core.MultiConfig{Devices: 2, Topology: core.SharedChannel})
	if !errors.Is(err, core.ErrInvalidParameters) || !strings.Contains(err.Error(), "TWrite") {
		t.Errorf("PredictMulti = %+v, %v; want an ErrInvalidParameters error naming TWrite", mp, err)
	}
}

// TestPredictRefusesExactlyNonFinite: Predict and PredictBatch refuse a
// valid worksheet exactly when CheckFinite refuses its unchecked
// prediction (SweepClock at the worksheet's own clock does not check),
// with the same error. The worksheets are drawn from extreme values of
// every field, so products overflow and quotients underflow.
func TestPredictRefusesExactlyNonFinite(t *testing.T) {
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64
	floats := []float64{tiny, 1e-320, 1e-300, 1e-150, 0.5, 1, 1e150, 1e300, huge}
	alphas := []float64{tiny, 1e-300, 0.5, 1}
	ints := []int64{0, 1, 1 << 40, math.MaxInt64}
	r := rand.New(rand.NewSource(21))
	pick := func(vs []float64) float64 { return vs[r.Intn(len(vs))] }
	refused := 0
	for i := 0; i < 50000; i++ {
		p := core.Parameters{
			Dataset: core.DatasetParams{ElementsIn: 1 + ints[r.Intn(3)], ElementsOut: ints[r.Intn(4)], BytesPerElement: pick(floats)},
			Comm:    core.CommParams{IdealThroughput: pick(floats), AlphaWrite: pick(alphas), AlphaRead: pick(alphas)},
			Comp:    core.CompParams{OpsPerElement: pick(floats), ThroughputProc: pick(floats), ClockHz: pick(floats)},
			Soft:    core.SoftwareParams{TSoft: pick(append(floats, 0)), Iterations: 1 + ints[r.Intn(3)]},
		}
		sweep, err := core.SweepClock(p, []float64{p.Comp.ClockHz})
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		want := sweep[0].CheckFinite()
		_, got := core.Predict(p)
		batchErr := core.PredictBatch([]core.Parameters{p}, make([]core.Prediction, 1))
		wantBatch := error(nil)
		if want != nil {
			refused++
			wantBatch = fmt.Errorf("batch index 0: %w", want)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(batchErr) != fmt.Sprint(wantBatch) {
			t.Fatalf("%+v:\n  CheckFinite:  %v\n  Predict:      %v\n  PredictBatch: %v", p, want, got, batchErr)
		}
	}
	if refused < 1000 {
		t.Fatalf("only %d of 50000 worksheets overflowed; the draw no longer reaches the edge cases", refused)
	}
}
