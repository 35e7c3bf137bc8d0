package rat_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rat "github.com/chrec/rat"
	"github.com/chrec/rat/internal/paper"
)

// TestFacadePredict: the public facade evaluates the walkthrough
// identically to the internal engine.
func TestFacadePredict(t *testing.T) {
	p := rat.Parameters{
		Name: "walkthrough",
		Dataset: rat.DatasetParams{
			ElementsIn: 512, ElementsOut: 1, BytesPerElement: 4,
		},
		Comm: rat.CommParams{IdealThroughput: rat.MBps(1000), AlphaWrite: 0.37, AlphaRead: 0.16},
		Comp: rat.CompParams{OpsPerElement: 768, ThroughputProc: 20, ClockHz: rat.MHz(150)},
		Soft: rat.SoftwareParams{TSoft: 0.578, Iterations: 400},
	}
	pr, err := rat.Predict(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pr.SpeedupSingle-10.58) > 0.02 {
		t.Errorf("facade speedup = %.2f, want ~10.58", pr.SpeedupSingle)
	}
	if pr.Speedup(rat.DoubleBuffered) <= pr.Speedup(rat.SingleBuffered) {
		t.Error("double-buffered must not be slower")
	}
}

// TestFacadeExploreRejectsOverflow: a grid whose worksheet fields all
// validate but whose derived numbers overflow is refused by
// rat.Explore as invalid parameters, not explored into +Inf and NaN.
func TestFacadeExploreRejectsOverflow(t *testing.T) {
	p := paper.PDF1DParams()
	p.Dataset.BytesPerElement = 1e300
	p.Dataset.ElementsIn = 1 << 40
	res, err := rat.Explore(rat.Grid{Base: p}, rat.ExploreOptions{Workers: 1})
	if !errors.Is(err, rat.ErrInvalidParameters) {
		t.Fatalf("Explore = %+v, %v; want an error wrapping ErrInvalidParameters", res, err)
	}
}

// TestFacadePredictRejectsOverflow: a worksheet whose fields all
// validate but whose derived numbers overflow is refused by
// rat.Predict, rat.PredictBatch and rat.PredictMulti as invalid
// parameters naming TWrite, not answered with +Inf and NaN.
func TestFacadePredictRejectsOverflow(t *testing.T) {
	p := paper.PDF1DParams()
	p.Dataset.BytesPerElement = 1e300
	p.Dataset.ElementsIn = 1 << 40
	check := func(call string, err error) {
		t.Helper()
		if !errors.Is(err, rat.ErrInvalidParameters) || !strings.Contains(err.Error(), "TWrite") {
			t.Errorf("%s err = %v; want an error wrapping ErrInvalidParameters that names TWrite", call, err)
		}
	}
	_, err := rat.Predict(p)
	check("Predict", err)
	check("PredictBatch", rat.PredictBatch([]rat.Parameters{p}, make([]rat.Prediction, 1)))
	_, err = rat.PredictMulti(p, rat.MultiConfig{Devices: 2, Topology: rat.SharedChannel})
	check("PredictMulti", err)
}

// TestFacadeCaseStudies: the three published worksheets load through
// the facade and match the paper package.
func TestFacadeCaseStudies(t *testing.T) {
	for _, id := range []rat.CaseStudyID{rat.PDF1D, rat.PDF2D, rat.MD} {
		p, err := rat.CaseStudy(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if p != paper.Params(paper.Case(id)) {
			t.Errorf("%s: facade worksheet differs from canonical", id)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid worksheet: %v", id, err)
		}
	}
	if _, err := rat.CaseStudy("nonsense"); err == nil {
		t.Error("unknown case study accepted")
	}
	if _, err := rat.CaseStudyScenario("nonsense", rat.MHz(100), rat.SingleBuffered); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestFacadeSimulate: a case-study scenario runs through the facade
// and reproduces the measured numbers.
func TestFacadeSimulate(t *testing.T) {
	sc, err := rat.CaseStudyScenario(rat.PDF1D, rat.MHz(150), rat.SingleBuffered)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rat.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TComp()-1.39e-4) > 2e-6 {
		t.Errorf("simulated t_comp = %.3e, want ~1.39e-4", m.TComp())
	}
}

// TestFacadeSimulateStreaming: the streaming discipline beats double
// buffering for the 2-D PDF (its read and write volumes overlap) and
// stays within the analytic streaming model's bracket.
func TestFacadeSimulateStreaming(t *testing.T) {
	sc, err := rat.CaseStudyScenario(rat.PDF2D, rat.MHz(150), rat.DoubleBuffered)
	if err != nil {
		t.Fatal(err)
	}
	db, err := rat.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rat.SimulateStreaming(sc)
	if err != nil {
		t.Fatal(err)
	}
	if st.TRC() > db.TRC() {
		t.Errorf("streaming %.4e slower than double-buffered %.4e", st.TRC(), db.TRC())
	}
	design, err := rat.CaseStudy(rat.PDF2D)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rat.PredictStreaming(design)
	if err != nil {
		t.Fatal(err)
	}
	// The platform's real overheads put the simulated time above the
	// ideal analytic floor, but the same order holds.
	if st.TRC() < sp.TRCStream*0.8 || st.TRC() > sp.TRCStream*2 {
		t.Errorf("streaming sim %.4e far from analytic %.4e", st.TRC(), sp.TRCStream)
	}
}

// TestWorksheetFileRoundTrip drives the worksheet file path end to
// end: encode to disk, decode, predict, evaluate.
func TestWorksheetFileRoundTrip(t *testing.T) {
	p, err := rat.CaseStudy(rat.PDF1D)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "design.rat")
	var buf bytes.Buffer
	if err := rat.EncodeWorksheet(&buf, p); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := rat.DecodeWorksheet(f)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("file round trip changed the worksheet:\n got %+v\nwant %+v", got, p)
	}
	dev, ok := rat.LookupDevice("Virtex-4 LX100")
	if !ok {
		t.Fatal("device database missing the LX100")
	}
	out, err := rat.Evaluate(rat.Requirements{TargetSpeedup: 10, Buffering: rat.SingleBuffered},
		rat.Design{Params: got, Demand: rat.Demand{DSP: 8, BRAM: 25, Logic: 6800}, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != rat.Proceed {
		t.Errorf("verdict = %v, want PROCEED", out.Verdict)
	}
}

// TestFacadeResourceAPI exercises the resource-test exports.
func TestFacadeResourceAPI(t *testing.T) {
	if len(rat.Devices()) < 3 {
		t.Error("device database too small")
	}
	dev, _ := rat.LookupDevice("Stratix-II EP2S180")
	cost, err := rat.OperatorCost(dev, rat.OpMul, 18)
	if err != nil || cost.DSP != 4 {
		t.Errorf("OperatorCost = %+v, %v", cost, err)
	}
	rep := rat.CheckResources(dev, rat.Demand{DSP: 768, BRAM: 100, Logic: 1000})
	if !rep.Fits || rep.Limiting != rat.DSP {
		t.Errorf("CheckResources = %+v", rep)
	}
	if n := rat.MaxReplicas(dev, rat.Demand{}, rat.Demand{DSP: 192}); n != 4 {
		t.Errorf("MaxReplicas = %d, want 4", n)
	}
}

// TestFacadePlatformAPI exercises the platform exports.
func TestFacadePlatformAPI(t *testing.T) {
	p := rat.NallatechH101()
	if a := p.Interconnect.MeasureAlpha(rat.DirWrite, 2048); math.Abs(a-0.37) > 0.005 {
		t.Errorf("facade alpha_write = %.3f", a)
	}
	if _, ok := rat.PlatformByName("xd1000"); !ok {
		t.Error("PlatformByName(xd1000) failed")
	}
	x := rat.XtremeDataXD1000()
	if x.Device.Name != "Stratix-II EP2S180" {
		t.Errorf("XD1000 device = %q", x.Device.Name)
	}
}

// TestFacadeHarnessExperiments: every registered experiment runs clean
// through the facade-level harness (the integration test behind the
// ratbench command). MD-backed experiments share the cached dataset.
func TestFacadeHarnessExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments build the full MD dataset")
	}
	for _, id := range []string{"fig1", "fig2", "fig3", "table1", "table2", "table3",
		"table4", "table5", "table6", "table7", "table8", "table9", "table10",
		"solver", "alphatable"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := harnessByID(id)
			if !ok {
				t.Fatalf("experiment %q missing", id)
			}
			out, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(out) < 40 {
				t.Errorf("suspiciously short output:\n%s", out)
			}
		})
	}
}
