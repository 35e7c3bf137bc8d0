package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/server"
	"github.com/chrec/rat/internal/worksheet"
)

// TestLoadAgainstServer drives a short closed-loop run against an
// in-process ratd serving core and checks the report: all requests
// answered 200 and a complete latency histogram printed.
func TestLoadAgainstServer(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()

	var out, errOut bytes.Buffer
	code := run([]string{
		"-url", ts.URL,
		"-c", "4",
		"-duration", "300ms",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, errOut.String())
	}
	report := out.String()
	if !strings.Contains(report, "HTTP 200:") {
		t.Errorf("report lacks HTTP 200 line:\n%s", report)
	}
	if !strings.Contains(report, "latency histogram") {
		t.Errorf("report lacks the latency histogram:\n%s", report)
	}
	if !strings.Contains(report, "latency: mean") {
		t.Errorf("report lacks latency summary:\n%s", report)
	}
}

// TestLoadPaced: QPS pacing still completes and reports.
func TestLoadPaced(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()

	var out, errOut bytes.Buffer
	code := run([]string{
		"-url", ts.URL,
		"-c", "2",
		"-qps", "200",
		"-duration", "250ms",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "paced to 200 qps") {
		t.Errorf("report does not mention pacing:\n%s", out.String())
	}
}

// TestLoadWorksheetFile: a custom worksheet file is validated and
// used; a broken one fails before the run starts.
func TestLoadWorksheetFile(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()

	path := filepath.Join(t.TempDir(), "md.json")
	var buf bytes.Buffer
	if err := worksheet.EncodeJSON(&buf, paper.MDParams()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-url", ts.URL, "-c", "1", "-duration", "100ms", "-worksheet", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, errOut.String())
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-url", ts.URL, "-worksheet", bad}, &out, &errOut); code != 1 {
		t.Errorf("broken worksheet: exit code %d, want 1", code)
	}
}

// TestLoadWireBinary: -wire binary drives the whole run over the
// compact frames, printing the pre-flight parity line first. The
// parity line is `make server-smoke`'s assertion surface, so its
// exact text is pinned here.
func TestLoadWireBinary(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()

	var out, errOut bytes.Buffer
	code := run([]string{
		"-url", ts.URL,
		"-c", "2",
		"-n", "10",
		"-duration", "30s",
		"-wire", "binary",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, errOut.String())
	}
	report := out.String()
	if !strings.Contains(report, "wire parity: json and binary predictions identical") {
		t.Errorf("report lacks the parity line:\n%s", report)
	}
	if !strings.Contains(report, "HTTP 200:") {
		t.Errorf("report lacks HTTP 200 line:\n%s", report)
	}
}

// TestLoadWireBinaryMulti: the parity pre-flight also covers the
// multi-FPGA response shape when devices/topology are set.
func TestLoadWireBinaryMulti(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()

	var out, errOut bytes.Buffer
	code := run([]string{
		"-url", ts.URL,
		"-c", "1",
		"-n", "4",
		"-duration", "30s",
		"-wire", "binary",
		"-devices", "3",
		"-topology", "independent",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "wire parity: json and binary predictions identical") {
		t.Errorf("report lacks the parity line:\n%s", out.String())
	}
}

// TestLoadUsageErrors: flag mistakes exit 2.
func TestLoadUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"stray"},
		{"-c", "0"},
		{"-duration", "-1s"},
		{"-qps", "-5"},
		{"-url", "not a url"},
		{"-wire", "xml"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2\nstderr: %s", args, code, errOut.String())
		}
	}
}

// TestLoadUnreachableServer: a dead endpoint is a runtime failure.
func TestLoadUnreachableServer(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-url", "http://127.0.0.1:1", // port 1: nothing listens there
		"-c", "1",
		"-duration", "100ms",
	}, &out, &errOut)
	if code != 1 {
		t.Errorf("exit code %d for unreachable server, want 1", code)
	}
	if !strings.Contains(errOut.String(), "transport errors") {
		t.Errorf("stderr lacks transport-error report: %s", errOut.String())
	}
}

// TestLoadRequestBudget: -n stops the run after exactly that many
// requests even with duration to spare.
func TestLoadRequestBudget(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()

	var out, errOut bytes.Buffer
	start := time.Now()
	code := run([]string{
		"-url", ts.URL,
		"-c", "4",
		"-n", "25",
		"-duration", "30s",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, errOut.String())
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("budgeted run took %v, should stop well before -duration", elapsed)
	}
	if !strings.Contains(out.String(), "ratload: 25 requests") {
		t.Errorf("report does not show exactly 25 requests:\n%s", out.String())
	}
}

// TestLoadTraceSampling: with -traces every request is traced; the
// report proves round-trip propagation and prints the slowest traces
// with their per-stage breakdowns.
func TestLoadTraceSampling(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()

	var out, errOut bytes.Buffer
	code := run([]string{
		"-url", ts.URL,
		"-c", "2",
		"-n", "20",
		"-traces", "3",
		"-duration", "30s",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, errOut.String())
	}
	report := out.String()
	if !strings.Contains(report, "traces: 20/20 echoed by the server") {
		t.Errorf("report lacks the full echo tally:\n%s", report)
	}
	if !strings.Contains(report, "slowest 3 traces") {
		t.Errorf("report lacks the slowest-traces section:\n%s", report)
	}
	if n := strings.Count(report, "trace="); n != 3 {
		t.Errorf("report prints %d trace lines, want 3:\n%s", n, report)
	}
	for _, stage := range []string{"admission=", "cache=", "kernel="} {
		if !strings.Contains(report, stage) {
			t.Errorf("trace lines lack the %s breakdown:\n%s", stage, report)
		}
	}
}

// TestLoadTraceFlagValidation: negative budgets and trace counts are
// usage errors.
func TestLoadTraceFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "-1"},
		{"-traces", "-2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
