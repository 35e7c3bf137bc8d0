package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

// worksheetFile writes p as a JSON worksheet file and returns its path.
func worksheetFile(t *testing.T, p core.Parameters) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ws.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := worksheet.EncodeJSON(f, p); err != nil {
		t.Fatal(err)
	}
	return path
}

// buildRatsim builds the ratsim command into a temporary directory and
// returns its path.
func buildRatsim(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("building ratsim needs the go command: %v", err)
	}
	ratsim := filepath.Join(t.TempDir(), "ratsim")
	if out, err := exec.Command(goTool, "build", "-o", ratsim, "github.com/chrec/rat/cmd/ratsim").CombinedOutput(); err != nil {
		t.Fatalf("go build ratsim: %v\n%s", err, out)
	}
	return ratsim
}

// TestRatsimJSONLMatchesRatd: ratsim explore -jsonl prints ratd's
// ?stream=jsonl body for the same grid, without its summary line, byte
// for byte: the explore CLIs and ratd write one record.
func TestRatsimJSONLMatchesRatd(t *testing.T) {
	want := singleNodeJSONL(t, startFleet(t, 1)[0])
	out, err := exec.Command(buildRatsim(t), append([]string{"explore", "-case", "pdf1d", "-jsonl"}, gridArgs...)...).Output()
	if err != nil {
		t.Fatalf("ratsim explore -jsonl: %v", err)
	}
	if string(out) != want {
		t.Errorf("ratsim explore -jsonl diverges from ratd's stream:\n got  %s\n want %s", out, want)
	}
}

// exitClass names how an explore command line ended: "usage" (exit 2),
// "input" (exit 1 before any worker was contacted) or "accepted"
// (ratsim ran it; ratctl got as far as its unreachable fleet).
func exitClass(code int, stderr string) string {
	switch {
	case code == 2:
		return "usage"
	case code == 0 || strings.Contains(stderr, "fleet failure"):
		return "accepted"
	case code == 1:
		return "input"
	}
	return "unexpected"
}

// TestCLIsRejectAlike: ratsim explore and ratctl explore build and
// validate a request through one front end, so every command line
// ends the same way in both, with ratd's own accept/reject: each case
// of TestExploreEndpointsRejectAlike that has a flag form, plus
// non-finite constraints, which JSON cannot carry to ratd. ratsim runs
// as a built binary; ratctl runs in process against an unreachable
// fleet, so a refusal shows that it came before any worker call.
func TestCLIsRejectAlike(t *testing.T) {
	ratsim := buildRatsim(t)
	overflowing := paper.PDF1DParams()
	overflowing.Dataset.BytesPerElement = 1e300
	overflowing.Dataset.ElementsIn = 1 << 40
	invalid := paper.PDF1DParams()
	invalid.Comp.ClockHz = -1
	// Overflows only at its own clock, which -clocks overrides: ratd
	// answers the request 200, so both CLIs accept it.
	overridden := paper.PDF1DParams()
	overridden.Comp.OpsPerElement = 1e300
	overridden.Comp.ClockHz = 1e-294

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-topology", "ring"}, "usage"},
		{[]string{"-buffering", "triple"}, "usage"},
		{[]string{"-objective", "max-fun"}, "usage"},
		{[]string{"-clocks", "100,100"}, "usage"},
		{[]string{"-min-speedup", "NaN"}, "usage"},
		{[]string{"-max-trc", "+Inf"}, "usage"},
		{[]string{"-max-util-comm", "-Inf"}, "usage"},
		{[]string{"-worksheet", worksheetFile(t, overflowing)}, "input"},
		{[]string{"-worksheet", worksheetFile(t, invalid)}, "input"},
		{[]string{"-worksheet", worksheetFile(t, overridden), "-clocks", "150"}, "accepted"},
		{[]string{"-topology", "shared-channel"}, "accepted"},
		{[]string{"-topology", "independent-channels"}, "accepted"},
	} {
		var simErr bytes.Buffer
		sim := exec.Command(ratsim, append([]string{"explore"}, tc.args...)...)
		sim.Stderr = &simErr
		simCode := 0
		if err := sim.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("ratsim %v: %v", tc.args, err)
			}
			simCode = exit.ExitCode()
		}

		var out, ctlErr bytes.Buffer
		ctlArgs := append([]string{"explore", "-workers", "http://127.0.0.1:1",
			"-shard-timeout", "200ms", "-timeout", "5s"}, tc.args...)
		ctlCode := run(ctlArgs, &out, &ctlErr)

		sc, cc := exitClass(simCode, simErr.String()), exitClass(ctlCode, ctlErr.String())
		if sc != tc.want || cc != tc.want {
			t.Errorf("%v: ratsim exit %d (%s), ratctl exit %d (%s); want %s from both\nratsim: %s\nratctl: %s",
				tc.args, simCode, sc, ctlCode, cc, tc.want, simErr.String(), ctlErr.String())
		}
	}
}
