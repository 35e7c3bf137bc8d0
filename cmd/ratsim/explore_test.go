package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

func TestExploreTable(t *testing.T) {
	code, out, errOut := runSim(t, "explore", "-case", "pdf1d",
		"-clocks", "75,100,150", "-tp", "10,20,40", "-top", "5", "-frontier", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"explored 18 candidates", "top 5 by max-speedup", "Pareto frontier", "double-buffered", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestExploreJSONL: -jsonl writes ratd's candidate lines and nothing
// else to stdout; the -metrics block goes to stderr.
func TestExploreJSONL(t *testing.T) {
	code, out, errOut := runSim(t, "explore", "-case", "md",
		"-clocks", "75,150", "-buffering", "single", "-top", "3", "-jsonl", "-frontier", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var tops, fronts int
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var line api.ExploreLine
		if err := dec.Decode(&line); err != nil || line.Candidate == nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch line.Kind {
		case "top":
			tops++
		case "frontier":
			fronts++
		default:
			t.Errorf("unknown kind %q", line.Kind)
		}
		if c := line.Candidate; c.Speedup <= 0 || c.Buffering != "single-buffered" {
			t.Errorf("implausible record: %+v", c)
		}
	}
	if tops != 2 || fronts == 0 {
		t.Errorf("got %d top and %d frontier records, want 2 and >0", tops, fronts)
	}
	if !strings.Contains(errOut, "rat_explore_evaluations_total") {
		t.Errorf("stderr lacks the -metrics block:\n%s", errOut)
	}
}

func TestExploreMinCostWithConstraint(t *testing.T) {
	code, out, errOut := runSim(t, "explore", "-case", "pdf1d",
		"-clocks", "75,100,150", "-tp", "5,10,20", "-objective", "min-cost",
		"-min-speedup", "7.8", "-buffering", "double", "-top", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "top 1 by min-cost") {
		t.Errorf("missing min-cost header:\n%s", out)
	}
}

func TestExploreWorksheetBase(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ws.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := worksheet.EncodeJSON(f, paper.PDF2DParams()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	code, out, errOut := runSim(t, "explore", "-worksheet", path, "-clocks", "100,150", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"explored 4 candidates", "rat_explore_candidates_total", "rat_explore_shard_seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestExploreUsageErrors(t *testing.T) {
	cases := [][]string{
		{"explore", "-case", "fft"},
		{"explore", "-clocks", "abc"},
		{"explore", "-topology", "ring"},
		{"explore", "-buffering", "triple"},
		{"explore", "-objective", "fastest"},
		{"explore", "-clocks", "100,100"}, // duplicate axis value
		{"explore", "-devices", "0"},
	}
	for _, args := range cases {
		code, _, errOut := runSim(t, args...)
		if code != 2 || !strings.Contains(errOut, "usage") {
			t.Errorf("%v: exit %d, stderr %q; want usage error (exit 2)", args, code, errOut)
		}
	}
	if code, _, _ := runSim(t, "explore", "-worksheet", "/nonexistent/ws.json"); code != 1 {
		t.Errorf("missing worksheet file: exit %d, want 1", code)
	}
}

// TestExploreOverflowingWorksheet: a worksheet whose fields validate
// but whose derived numbers overflow (t_comm +Inf) exits 1 naming the
// quantity, in table and JSONL mode alike — never a table of +Inf and
// NaN% with exit 0.
func TestExploreOverflowingWorksheet(t *testing.T) {
	p := paper.PDF1DParams()
	p.Dataset.BytesPerElement = 1e300
	p.Dataset.ElementsIn = 1 << 40
	path := filepath.Join(t.TempDir(), "ws.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := worksheet.EncodeJSON(f, p); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, mode := range [][]string{nil, {"-jsonl"}} {
		args := append([]string{"explore", "-worksheet", path, "-frontier"}, mode...)
		code, out, errOut := runSim(t, args...)
		if code != 1 || !strings.Contains(errOut, "TComm") || !strings.Contains(errOut, "1099511627776") {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 naming TComm at block size 1099511627776", mode, code, errOut)
		}
		if out != "" {
			t.Errorf("%v: wrote %q before failing", mode, out)
		}
	}
}

// TestExploreHugeTop: a -top far beyond the grid asks for every
// candidate. It must not size anything by the flag: the run exits 0
// with all 4 candidates, not with an out-of-memory crash.
func TestExploreHugeTop(t *testing.T) {
	code, out, errOut := runSim(t, "explore", "-case", "pdf1d",
		"-clocks", "100,150", "-top", "1099511627776", "-jsonl")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if n := strings.Count(out, `"kind":"top"`); n != 4 {
		t.Errorf("got %d top records, want all 4 candidates:\n%s", n, out)
	}
}
