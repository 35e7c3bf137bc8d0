package harness_test

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/harness"
	"github.com/chrec/rat/internal/telemetry"
)

func TestAllHaveUniqueIDsAndRun(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range harness.All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if len(seen) < 16 {
		t.Errorf("only %d experiments registered", len(seen))
	}
}

func TestByID(t *testing.T) {
	if _, ok := harness.ByID("table3"); !ok {
		t.Error("table3 missing")
	}
	if _, ok := harness.ByID("table99"); ok {
		t.Error("ByID invented an experiment")
	}
}

// contentChecks pins each experiment's output to the cells that matter.
// The MD-backed experiments (table9, table10 via mdSystem) are covered
// here too; they share one cached dataset so the suite stays fast.
var contentChecks = map[string][]string{
	"fig1":          {"PROCEED", "NEW DESIGN", "insufficient communication", "insufficient computation", "unrealizable", "insufficient resources"},
	"fig2":          {"Single buffered", "computation bound", "communication bound", "W1", "C1", "R1", "overlap"},
	"fig3":          {"8 parallel pipelines", "20850", "18.9"},
	"table1":        {"[dataset]", "[communication]", "[computation]", "[software]"},
	"table2":        {"512", "0.37", "0.16", "768", "matches the published table"},
	"table3":        {"5.56E-6", "1.31E-4", "2.50E-5", "10.6", "7.8"},
	"table4":        {"48-bit DSPs", "15%", "8%"},
	"table5":        {"1024", "65536", "393216", "matches the published table"},
	"table6":        {"1.65E-3", "5.59E-2", "1.05E-2", "19%", "6.9"},
	"table7":        {"21%", "53%"},
	"table8":        {"16384", "164000", "50", "5.78", "matches the published table"},
	"table9":        {"2.62E-3", "3.58E-1", "8.79E-1", "16.0", "6.6"},
	"table10":       {"9-bit DSPs", "100%", "ALUTs"},
	"precision":     {"18-bit fixed", "chosen", "32-bit float"},
	"solver":        {"46.7", "50", "10.7"},
	"alphatable":    {"2048", "0.369", "0.160", "0.025"},
	"ext-multifpga": {"knee at 33.9", "240.7", "454.3", "efficiency"},
	"ext-bounds":    {"uncertain", "Single-buffered speedup intervals", "molecular dynamics"},
	"ext-accuracy":  {"optimistic", "pessimistic", "accurate", "tuning parameter", "double buffering would hide"},
	"ext-power":     {"less energy", "Xeon", "Opteron", "FPGA W"},
	"ext-faults":    {"Fault-rate sweep", "pdf1d", "pdf2d", "md", "retries", "monotonically"},
	"ext-explore":   {"Cheapest configuration", "min-cost", "1-D PDF estimation", "molecular dynamics", "buffered"},
}

// TestFaultStudyMonotone is the degradation-study acceptance check:
// within each design, t_RC must be non-decreasing as the fault rate
// rises. FaultStudy itself errors on bit-exact violations; this test
// re-derives the property from the rendered table so a formatting or
// ordering regression cannot hide one.
func TestFaultStudyMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("the fault sweep builds the MD dataset")
	}
	e, ok := harness.ByID("ext-faults")
	if !ok {
		t.Fatal("ext-faults experiment not registered")
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	prev := map[string]float64{}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 6 {
			continue
		}
		design := fields[0]
		trc, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue // header or prose line
		}
		rows++
		if last, seen := prev[design]; seen && trc < last {
			t.Errorf("%s: t_RC %g below previous %g as the fault rate rises", design, trc, last)
		}
		prev[design] = trc
	}
	if rows < 15 || len(prev) != 3 {
		t.Fatalf("parsed %d sweep rows over %d designs, want 15 over 3:\n%s", rows, len(prev), out)
	}
}

func TestExperimentContents(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating all experiments builds the MD dataset")
	}
	for _, e := range harness.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			wants, ok := contentChecks[e.ID]
			if !ok {
				t.Fatalf("no content check registered for %q", e.ID)
			}
			for _, w := range wants {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestDeterministicOutput: every experiment's output is identical
// across runs (the simulated platforms and datasets are fully
// deterministic).
func TestDeterministicOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("double regeneration")
	}
	for _, id := range []string{"fig2", "table3", "table6"} {
		e, _ := harness.ByID(id)
		a, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: output not deterministic", id)
		}
	}
}

func TestRunWithRecordsMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	ok := harness.Experiment{ID: "unit-ok", Run: func() (string, error) { return "fine", nil }}
	bad := harness.Experiment{ID: "unit-bad", Run: func() (string, error) { return "", errors.New("boom") }}
	if _, err := ok.RunWith(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.RunWith(reg); err == nil {
		t.Fatal("bad experiment must propagate its error")
	}
	s := reg.Snapshot()
	if s.Counters["harness.experiments_run"] != 2 || s.Counters["harness.experiments_failed"] != 1 {
		t.Errorf("counters = %v", s.Counters)
	}
	if secs, ok := s.Gauges["harness.experiment.unit-ok"]; !ok || secs < 0 {
		t.Errorf("missing per-experiment wall time: %v", s.Gauges)
	}
	if _, err := ok.RunWith(nil); err != nil {
		t.Errorf("nil registry must still run: %v", err)
	}
}

func TestMDDatasetCacheCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	harness.SetRegistry(reg)
	defer harness.SetRegistry(telemetry.Default())
	if harness.Metrics() != reg {
		t.Fatal("SetRegistry did not take")
	}
	// Table 9 simulates the MD case study, touching the dataset
	// cache once per run; two runs are at most one miss and at least
	// one hit (the miss may have happened in an earlier test against
	// another registry).
	e, _ := harness.ByID("table9")
	if _, err := e.RunWith(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunWith(reg); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["harness.md_dataset.cache_hits"]+s.Counters["harness.md_dataset.cache_misses"] < 2 {
		t.Errorf("cache counters = %v", s.Counters)
	}
	if s.Counters["harness.md_dataset.cache_hits"] < 1 {
		t.Errorf("second run must hit the cache: %v", s.Counters)
	}
}
