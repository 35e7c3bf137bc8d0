package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/apps/pdf1d"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/rcsim"
	"github.com/chrec/rat/internal/report"
	"github.com/chrec/rat/internal/telemetry"
)

func runSim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunPDF1D(t *testing.T) {
	code, out, errOut := runSim(t, "run", "-case", "pdf1d", "-gantt")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"Nallatech", "t_comm  = 2.50E-5", "t_comp  = 1.39E-4", "speedup", "Comm |", "Comp |"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPDF2DDouble(t *testing.T) {
	code, out, _ := runSim(t, "run", "-case", "pdf2d", "-double")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "double-buffered") {
		t.Errorf("missing discipline:\n%s", out)
	}
}

func TestRunUnknownCase(t *testing.T) {
	code, _, errOut := runSim(t, "run", "-case", "fft")
	if code != 2 || !strings.Contains(errOut, "unknown case study") || !strings.Contains(errOut, "usage") {
		t.Errorf("exit %d, %s", code, errOut)
	}
}

func TestMicrobench(t *testing.T) {
	code, out, _ := runSim(t, "microbench", "-platform", "nallatech", "-sizes", "2048,262144")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"PCI-X", "0.369", "0.160", "0.025"} {
		if !strings.Contains(out, want) {
			t.Errorf("microbench missing %q:\n%s", want, out)
		}
	}
	if code, _, _ := runSim(t, "microbench", "-platform", "skynet"); code != 2 {
		t.Error("unknown platform must be a usage error")
	}
	// Malformed -sizes entries are usage errors: exit 2 plus the
	// usage text, never a silently shortened sweep.
	if code, _, errOut := runSim(t, "microbench", "-sizes", "big"); code != 2 || !strings.Contains(errOut, "usage") || !strings.Contains(errOut, "bad -sizes entry") {
		t.Errorf("bad sizes: exit %d, stderr %q", code, errOut)
	}
	if code, _, errOut := runSim(t, "microbench", "-sizes", "-4"); code != 2 || !strings.Contains(errOut, "usage") {
		t.Errorf("negative size: exit %d, stderr %q", code, errOut)
	}
	if code, _, _ := runSim(t, "microbench", "-sizes", "2048,oops,512"); code != 2 {
		t.Error("partially malformed -sizes must exit 2, not drop entries")
	}
}

func TestSynth(t *testing.T) {
	code, out, _ := runSim(t, "synth", "-elements", "1000", "-out", "1000", "-iters", "5",
		"-cycles", "5000", "-mhz", "100", "-gantt")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "synthetic scenario") || !strings.Contains(out, "t_RC") {
		t.Errorf("synth output:\n%s", out)
	}
	// Multi-device fan-out path.
	code, out, _ = runSim(t, "synth", "-elements", "1024", "-out", "1024", "-devices", "4")
	if code != 0 || !strings.Contains(out, "4 device(s)") {
		t.Errorf("multi synth: exit %d\n%s", code, out)
	}
	// Indivisible fan-out is a usage error caught before the run.
	if code, _, errOut := runSim(t, "synth", "-elements", "1000", "-devices", "3"); code != 2 || !strings.Contains(errOut, "usage") {
		t.Errorf("indivisible multi: exit %d, stderr %q", code, errOut)
	}
}

func TestUsageAndUnknown(t *testing.T) {
	if code, _, errOut := runSim(t); code != 2 || !strings.Contains(errOut, "usage") {
		t.Error("no args must print usage")
	}
	if code, _, errOut := runSim(t, "teleport"); code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Error("unknown command must exit 2")
	}
	if code, out, _ := runSim(t, "help"); code != 0 || !strings.Contains(out, "usage") {
		t.Error("help must print usage")
	}
	if code, _, errOut := runSim(t, "run", "-bogus"); code != 2 || !strings.Contains(errOut, "usage") {
		t.Errorf("bad flag: exit %d, stderr %q", code, errOut)
	}
}

// TestUsageExitCodes is the table-driven contract for the CLI's exit
// statuses: 0 success, 1 runtime failure, 2 usage error (with the
// usage text on stderr).
func TestUsageExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no-args", nil, 2},
		{"unknown-command", []string{"teleport"}, 2},
		{"help", []string{"help"}, 0},
		{"run-bad-flag", []string{"run", "-bogus"}, 2},
		{"run-unknown-case", []string{"run", "-case", "fft"}, 2},
		{"run-bad-fault-spec", []string{"run", "-case", "pdf1d", "-faults", "crc=2"}, 2},
		{"run-bad-fault-key", []string{"run", "-case", "pdf1d", "-faults", "cosmic=0.1"}, 2},
		{"run-bad-policy", []string{"run", "-case", "pdf1d", "-faults", "crc=0.01", "-fault-policy", "retries=no"}, 2},
		{"run-policy-without-faults", []string{"run", "-case", "pdf1d", "-fault-policy", "retries=5"}, 2},
		{"synth-bad-flag", []string{"synth", "-bogus"}, 2},
		{"synth-unknown-platform", []string{"synth", "-platform", "skynet"}, 2},
		{"synth-bad-iters", []string{"synth", "-iters", "0"}, 2},
		{"synth-bad-devices", []string{"synth", "-devices", "0"}, 2},
		{"synth-indivisible", []string{"synth", "-elements", "1000", "-devices", "3"}, 2},
		{"microbench-bad-flag", []string{"microbench", "-bogus"}, 2},
		{"microbench-unknown-platform", []string{"microbench", "-platform", "skynet"}, 2},
		{"microbench-bad-sizes", []string{"microbench", "-sizes", "big"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := runSim(t, tc.args...)
			if code != tc.want {
				t.Fatalf("args %v: exit %d, want %d (stderr %q)", tc.args, code, tc.want, errOut)
			}
			if tc.want == 2 && !strings.Contains(errOut, "usage") {
				t.Errorf("args %v: usage text missing from stderr %q", tc.args, errOut)
			}
		})
	}
}

// TestRunWithFaults drives the fault-injection flags end to end: the
// run must succeed, print the fault summary line, and stay
// deterministic across invocations with the same seed.
func TestRunWithFaults(t *testing.T) {
	args := []string{"synth", "-elements", "1000", "-out", "1000", "-iters", "10", "-cycles", "5000",
		"-faults", "crc=0.1,upset=0.1", "-fault-seed", "42", "-fault-policy", "retries=10,backoff=10us"}
	code, out1, errOut := runSim(t, args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out1, "faults  =") || !strings.Contains(out1, "retries") {
		t.Errorf("fault summary missing:\n%s", out1)
	}
	if _, out2, _ := runSim(t, args...); out1 != out2 {
		t.Errorf("same seed produced different output:\n%s\nvs\n%s", out1, out2)
	}
	// A different seed shifts the injected pattern.
	argsSeed7 := []string{"synth", "-elements", "1000", "-out", "1000", "-iters", "10", "-cycles", "5000",
		"-faults", "crc=0.1,upset=0.1", "-fault-seed", "7", "-fault-policy", "retries=10,backoff=10us"}
	if _, out3, _ := runSim(t, argsSeed7...); out1 == out3 {
		t.Error("different fault seeds produced identical output")
	}
	// Fault-free runs must not print the summary line.
	if _, clean, _ := runSim(t, "synth", "-elements", "1000", "-out", "1000"); strings.Contains(clean, "faults  =") {
		t.Errorf("fault summary printed on a fault-free run:\n%s", clean)
	}
}

// TestRunTraceAndEvents is the acceptance check for the telemetry
// subsystem: a pdf1d run must produce a valid Chrome trace-event JSON
// file and a JSONL event log whose summed span durations agree with
// the run's RC execution time to within 1e-9 s.
func TestRunTraceAndEvents(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.json")
	eventsFile := filepath.Join(dir, "e.jsonl")
	code, out, errOut := runSim(t, "run", "-case", "pdf1d", "-trace", traceFile, "-events", eventsFile)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "t_RC") {
		t.Fatalf("run output:\n%s", out)
	}

	// The printed t_RC comes from this deterministic measurement.
	m, err := rcsim.Run(pdf1d.Scenario(core.MHz(150), core.SingleBuffered))
	if err != nil {
		t.Fatal(err)
	}
	if want := report.FormatSci(m.TRC()); !strings.Contains(out, want) {
		t.Errorf("printed t_RC does not match the reference run %s:\n%s", want, out)
	}

	// JSONL event log: re-parse and sum span durations.
	ef, err := os.Open(eventsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	events, err := telemetry.ReadEvents(ef)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty event log")
	}
	var eventSum float64
	for _, e := range events {
		eventSum += e.DurationSeconds()
	}
	if diff := math.Abs(eventSum - m.TRC()); diff > 1e-9 {
		t.Errorf("summed event durations %.12g s vs t_RC %.12g s (diff %g > 1e-9)", eventSum, m.TRC(), diff)
	}

	// Chrome trace: must re-parse as trace-event JSON, and its
	// complete-event durations must sum to the same total.
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	var spanSumUs float64
	spans := 0
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			spans++
			spanSumUs += e.Dur
		}
	}
	if spans != len(events) {
		t.Errorf("trace has %d spans, event log has %d events", spans, len(events))
	}
	if diff := math.Abs(spanSumUs/1e6 - m.TRC()); diff > 1e-9 {
		t.Errorf("summed trace durations %.12g s vs t_RC %.12g s (diff %g > 1e-9)", spanSumUs/1e6, m.TRC(), diff)
	}
}

func TestRunMetricsAndProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, out, errOut := runSim(t, "run", "-case", "pdf1d", "-metrics", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"metrics:", "counter rcsim.runs", "gauge   rcsim.t_rc_seconds", "gauge   ratsim.sim_wall"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", f, err)
		}
	}
}

func TestSynthTraceEventsMetrics(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "synth.json")
	eventsFile := filepath.Join(dir, "synth.jsonl")
	code, out, _ := runSim(t, "synth", "-elements", "1024", "-out", "1024", "-iters", "4",
		"-double", "-trace", traceFile, "-events", eventsFile, "-metrics")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "counter rcsim.iterations") {
		t.Errorf("synth metrics missing:\n%s", out)
	}
	ef, err := os.Open(eventsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	events, err := telemetry.ReadEvents(ef)
	if err != nil {
		t.Fatal(err)
	}
	swaps := 0
	for _, e := range events {
		if e.Kind == telemetry.EventBufferSwap {
			swaps++
		}
	}
	if swaps == 0 {
		t.Error("double-buffered synth run emitted no buffer-swap events")
	}
	if raw, err := os.ReadFile(traceFile); err != nil || !json.Valid(raw) {
		t.Errorf("trace file invalid (err %v)", err)
	}
}
