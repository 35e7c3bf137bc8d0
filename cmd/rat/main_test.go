package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/platform"
	"github.com/chrec/rat/internal/worksheet"
)

// writeSheet drops the canonical Table 2 worksheet into a temp file.
func writeSheet(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	var content string
	if strings.HasSuffix(name, ".json") {
		var buf bytes.Buffer
		if err := worksheet.EncodeJSON(&buf, paper.PDF1DParams()); err != nil {
			t.Fatal(err)
		}
		content = buf.String()
	} else {
		content = worksheet.EncodeString(paper.PDF1DParams())
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI invokes the command and captures output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestPredictCommand(t *testing.T) {
	sheet := writeSheet(t, "design.rat")
	code, out, errOut := runCLI(t, "predict", "-f", sheet, "-clocks", "75,100,150")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"1.31E-4", "10.6", "5.4", "asymptotic speedup limit", "crossover clock"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPredictJSONWorksheet(t *testing.T) {
	sheet := writeSheet(t, "design.json")
	code, out, errOut := runCLI(t, "predict", "-f", sheet)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "10.6") {
		t.Errorf("JSON worksheet prediction wrong:\n%s", out)
	}
}

// TestPredictWithAlphaTable: alphas re-derived from a measured table
// at the 2-D PDF design's true transfer sizes fix the comm prediction.
func TestPredictWithAlphaTable(t *testing.T) {
	// Save the Nallatech tabulation.
	ic := platform.NallatechH101().Interconnect
	tablePath := filepath.Join(t.TempDir(), "nallatech.alphas")
	var tbl bytes.Buffer
	if err := platform.SaveAlphaTable(&tbl, ic, []int64{512, 2048, 4096, 65536, 262144}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tablePath, tbl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// A 2-D PDF worksheet.
	sheetPath := filepath.Join(t.TempDir(), "pdf2d.rat")
	if err := os.WriteFile(sheetPath, []byte(worksheet.EncodeString(paper.PDF2DParams())), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, "predict", "-f", sheetPath, "-alphas", tablePath)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	// The read alpha drops from the naive 0.16 to the measured
	// 256 KB value ~0.025, pushing t_comm to ~1.05E-2.
	if !strings.Contains(out, "0.025 read") {
		t.Errorf("expected size-matched read alpha:\n%s", out)
	}
	if !strings.Contains(out, "1.05E-2") {
		t.Errorf("expected corrected t_comm 1.05E-2:\n%s", out)
	}
	if code, _, _ := runCLI(t, "predict", "-f", sheetPath, "-alphas", "/no/such/table"); code != 1 {
		t.Error("missing table accepted")
	}
}

func TestSolveCommand(t *testing.T) {
	sheet := writeSheet(t, "design.rat")
	code, out, _ := runCLI(t, "solve", "-f", sheet, "-target", "20")
	if code != 0 || !strings.Contains(out, "required throughput_proc: 39.31") {
		t.Errorf("solve output (exit %d):\n%s", code, out)
	}
	code, out, _ = runCLI(t, "solve", "-f", sheet, "-target", "20", "-for", "clock")
	if code != 0 || !strings.Contains(out, "required f_clock") {
		t.Errorf("solve clock (exit %d):\n%s", code, out)
	}
	code, out, _ = runCLI(t, "solve", "-f", sheet, "-target", "2", "-for", "alpha")
	if code != 0 || !strings.Contains(out, "required alpha") {
		t.Errorf("solve alpha (exit %d):\n%s", code, out)
	}
	// Unknown free variable.
	code, _, errOut := runCLI(t, "solve", "-f", sheet, "-target", "2", "-for", "luck")
	if code != 2 || !strings.Contains(errOut, "unknown solve variable") {
		t.Errorf("bad -for: exit %d, %s", code, errOut)
	}
	// Unreachable target surfaces the solver's error.
	code, _, errOut = runCLI(t, "solve", "-f", sheet, "-target", "100000")
	if code != 1 || !strings.Contains(errOut, "unreachable") {
		t.Errorf("unreachable target: exit %d, %s", code, errOut)
	}
	// A worksheet that validates but whose byte count overflows is a
	// reported error, not a panic or an "infeasible" +Inf alpha.
	over := paper.PDF1DParams()
	over.Dataset.BytesPerElement = 1e300
	over.Dataset.ElementsIn = 1 << 40
	overPath := filepath.Join(t.TempDir(), "overflow.rat")
	if err := os.WriteFile(overPath, []byte(worksheet.EncodeString(over)), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut = runCLI(t, "solve", "-f", overPath, "-target", "2", "-for", "alpha")
	if code != 1 || !strings.Contains(errOut, "TWrite") {
		t.Errorf("overflowing worksheet: exit %d, stdout %q, stderr %q; want exit 1 naming TWrite", code, out, errOut)
	}
}

func TestSweepCommand(t *testing.T) {
	sheet := writeSheet(t, "design.rat")
	code, out, _ := runCLI(t, "sweep", "-f", sheet, "-min", "100", "-max", "8000", "-steps", "6")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "compute-bound") || !strings.Contains(out, "comm-bound") ||
		!strings.Contains(out, "regime crossover") {
		t.Errorf("sweep should cross regimes:\n%s", out)
	}
	if code, _, _ := runCLI(t, "sweep", "-f", sheet, "-min", "100", "-max", "50"); code != 2 {
		t.Error("max < min not a usage error")
	}
	missing := filepath.Join(t.TempDir(), "missing.rat")
	if code, _, errOut := runCLI(t, "sweep", "-f", missing, "-steps", "1"); code != 2 || !strings.Contains(errOut, "-steps") {
		t.Errorf("one step: exit %d, %s; want a usage error before the worksheet is read", code, errOut)
	}
}

func TestBoundsCommand(t *testing.T) {
	sheet := writeSheet(t, "design.rat")
	code, out, _ := runCLI(t, "bounds", "-f", sheet, "-target", "10")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"speedup:", "t_RC:", "10x goal:"} {
		if !strings.Contains(out, want) {
			t.Errorf("bounds output missing %q:\n%s", want, out)
		}
	}
	if code, _, _ := runCLI(t, "bounds", "-f", sheet, "-alpha", "2"); code != 2 {
		t.Error("invalid uncertainty not a usage error")
	}
}

func TestMultiCommand(t *testing.T) {
	sheet := writeSheet(t, "design.rat")
	code, out, _ := runCLI(t, "multi", "-f", sheet, "-devices", "8")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"Multi-FPGA scaling", "knee", "efficiency", "8"} {
		if !strings.Contains(out, want) {
			t.Errorf("multi output missing %q:\n%s", want, out)
		}
	}
	code, out, _ = runCLI(t, "multi", "-f", sheet, "-devices", "4", "-independent", "-double")
	if code != 0 || !strings.Contains(out, "independent-channels") {
		t.Errorf("independent multi (exit %d):\n%s", code, out)
	}
	if code, _, _ := runCLI(t, "multi", "-f", sheet, "-devices", "0"); code != 2 {
		t.Error("zero devices not a usage error")
	}
}

func TestCheckCommand(t *testing.T) {
	sheet := writeSheet(t, "design.rat")
	code, out, _ := runCLI(t, "check", "-f", sheet, "-target", "10",
		"-device", "Virtex-4 LX100", "-dsp", "8", "-bram", "25", "-logic", "6800")
	if code != 0 || !strings.Contains(out, "verdict: PROCEED") {
		t.Errorf("passing check: exit %d\n%s", code, out)
	}
	// Failing verdict exits 1 but is not an error.
	code, out, errOut := runCLI(t, "check", "-f", sheet, "-target", "50",
		"-device", "Virtex-4 LX100", "-dsp", "8", "-bram", "25", "-logic", "6800")
	if code != 1 || !strings.Contains(out, "verdict: NEW DESIGN") || errOut != "" {
		t.Errorf("failing check: exit %d out=%q err=%q", code, out, errOut)
	}
	if code, _, errOut := runCLI(t, "check", "-f", sheet, "-target", "10", "-device", "NoSuchChip"); code != 2 || !strings.Contains(errOut, "unknown device") {
		t.Errorf("unknown device: exit %d, %s", code, errOut)
	}
}

func TestProjectCommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.json")
	var buf bytes.Buffer
	err := worksheet.EncodeProject(&buf, "pdf suite", []core.Stage{
		{Name: "pdf-1d", Params: paper.PDF1DParams(), Buffering: core.SingleBuffered},
		{Name: "pdf-2d", Params: paper.PDF2DParams(), Buffering: core.DoubleBuffered},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, "project", "-f", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"pdf suite", "pdf-1d", "pdf-2d", "bottleneck: pdf-2d", "composite:"} {
		if !strings.Contains(out, want) {
			t.Errorf("project output missing %q:\n%s", want, out)
		}
	}
	if code, _, _ := runCLI(t, "project"); code != 2 {
		t.Error("missing -f must be a usage error")
	}
	if code, _, _ := runCLI(t, "project", "-f", "/does/not/exist.json"); code != 1 {
		t.Error("missing file accepted")
	}
}

func TestValidateCommand(t *testing.T) {
	sheet := writeSheet(t, "design.rat")
	// The paper's measured 1-D PDF numbers.
	code, out, errOut := runCLI(t, "validate", "-f", sheet, "-comm", "2.5e-5", "-comp", "1.39e-4", "-trc", "7.45e-2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"t_comm", "optimistic", "t_comp", "accurate", "diagnosis:", "double buffering would hide"} {
		if !strings.Contains(out, want) {
			t.Errorf("validate output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "speedup: 10.6 predicted, 7.8 measured") {
		t.Errorf("speedup line wrong:\n%s", out)
	}
	if code, _, _ := runCLI(t, "validate", "-f", sheet); code != 2 {
		t.Error("missing measurements must be a usage error")
	}
}

func TestExampleRoundTrips(t *testing.T) {
	code, out, _ := runCLI(t, "example")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	p, err := worksheet.DecodeString(out)
	if err != nil {
		t.Fatalf("example output does not parse: %v", err)
	}
	if p != paper.PDF1DParams() {
		t.Error("example worksheet is not the Table 2 canonical")
	}
}

func TestDevicesCommand(t *testing.T) {
	code, out, _ := runCLI(t, "devices")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"Virtex-4 LX100", "Stratix-II EP2S180", "48-bit DSPs", "ALUTs"} {
		if !strings.Contains(out, want) {
			t.Errorf("device table missing %q:\n%s", want, out)
		}
	}
}

func TestUsageAndErrors(t *testing.T) {
	if code, _, errOut := runCLI(t); code != 2 || !strings.Contains(errOut, "usage") {
		t.Error("no args must print usage and exit 2")
	}
	if code, _, errOut := runCLI(t, "conjure"); code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Error("unknown command must exit 2")
	}
	if code, out, _ := runCLI(t, "help"); code != 0 || !strings.Contains(out, "usage") {
		t.Error("help must print usage")
	}
	// Missing worksheet.
	if code, _, errOut := runCLI(t, "predict"); code != 2 || !strings.Contains(errOut, "worksheet file is required") {
		t.Error("missing -f must be a usage error")
	}
	// Nonexistent file.
	if code, _, _ := runCLI(t, "predict", "-f", "/does/not/exist.rat"); code != 1 {
		t.Error("missing file must fail")
	}
	// Bad flag.
	if code, _, _ := runCLI(t, "predict", "-nonsense"); code != 2 {
		t.Error("bad flag must be a usage error")
	}
	// Bad clock list.
	sheet := writeSheet(t, "design.rat")
	if code, _, _ := runCLI(t, "predict", "-f", sheet, "-clocks", "fast"); code != 2 {
		t.Error("bad clock list must be a usage error")
	}
}

func TestMalformedWorksheet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.rat")
	if err := os.WriteFile(path, []byte("[dataset]\nelements_in twelve\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCLI(t, "predict", "-f", path); code != 1 || !strings.Contains(errOut, "syntax error") {
		t.Errorf("malformed worksheet: exit %d, %s", code, errOut)
	}
}
