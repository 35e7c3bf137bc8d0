package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestList(t *testing.T) {
	code, out, _ := runBench(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fig1", "fig2", "fig3", "table1", "table10", "precision", "solver", "ext-multifpga", "ext-bounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q:\n%s", want, out)
		}
	}
}

func TestSelectedExperiments(t *testing.T) {
	code, out, errOut := runBench(t, "-exp", "table3", "-exp", "fig3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "=== table3") || !strings.Contains(out, "=== fig3") {
		t.Errorf("headers missing:\n%s", out)
	}
	if !strings.Contains(out, "1.31E-4") || !strings.Contains(out, "20850") {
		t.Errorf("experiment content missing:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, errOut := runBench(t, "-exp", "table42")
	if code != 2 || !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("exit %d, %q", code, errOut)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runBench(t, "-frequency", "11"); code != 2 {
		t.Errorf("bad flag exit %d", code)
	}
}

// TestExitCodes pins the status contract: 0 success, 1 runtime
// failure (e.g. an unwritable profile path), 2 usage error.
func TestExitCodes(t *testing.T) {
	badPath := filepath.Join(t.TempDir(), "no", "such", "dir", "out.pprof")
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"list", []string{"-list"}, 0},
		{"bad-flag", []string{"-frequency", "11"}, 2},
		{"unknown-exp", []string{"-exp", "table42"}, 2},
		{"bad-cpuprofile", []string{"-exp", "fig3", "-cpuprofile", badPath}, 1},
		{"bad-memprofile", []string{"-exp", "fig3", "-memprofile", badPath}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := runBench(t, tc.args...)
			if code != tc.want {
				t.Fatalf("args %v: exit %d, want %d (stderr %q)", tc.args, code, tc.want, errOut)
			}
			if tc.want == 1 && !strings.Contains(errOut, "profile") {
				t.Errorf("args %v: profile diagnostic missing from stderr %q", tc.args, errOut)
			}
		})
	}
}

func TestRunSummaryLine(t *testing.T) {
	code, out, errOut := runBench(t, "-exp", "fig3", "-exp", "table2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "ran 2 experiment(s), 0 failure(s), total wall time") {
		t.Errorf("summary line missing:\n%s", out)
	}
}

func TestMetricsFlag(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, out, errOut := runBench(t, "-exp", "fig3", "-metrics", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"metrics:", "counter harness.experiments_run", "gauge   harness.experiment.fig3"} {
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
