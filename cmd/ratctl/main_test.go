package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/server"
	"github.com/chrec/rat/internal/worksheet"
)

// startFleet boots n in-process ratd instances and returns their URLs.
func startFleet(t *testing.T, n int) []string {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(server.New(server.Config{}).Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	return urls
}

// gridArgs is the fixture grid (144 candidates) as explore flags,
// shared by the tests and mirrored by the Makefile cluster-smoke
// target.
var gridArgs = []string{
	"-clocks", "75,100,150", "-tp", "10,20,40", "-alphas", "0.16,0.37",
	"-blocks", "512,2048", "-devices", "1,4", "-topology", "independent",
	"-top", "10", "-frontier",
}

// singleNodeJSONL renders the reference output: what ratsim explore
// -jsonl prints for the same grid, from the request gridArgs describe.
func singleNodeJSONL(t *testing.T) string {
	t.Helper()
	req := api.ExploreRequest{
		Worksheet:       worksheet.DocFromParams(paper.PDF1DParams()),
		ClocksMHz:       []float64{75, 100, 150},
		ThroughputProcs: []float64{10, 20, 40},
		Alphas:          []float64{0.16, 0.37},
		BlockSizes:      []int64{512, 2048},
		Devices:         []int{1, 4},
		Topology:        "independent",
		TopK:            10,
		Frontier:        true,
	}
	g, err := req.Grid()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := req.Options(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := explore.Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := explore.WriteJSONL(&buf, "top", res.Top); err != nil {
		t.Fatal(err)
	}
	if err := explore.WriteJSONL(&buf, "frontier", res.Frontier); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestExploreJSONLByteIdentical: ratctl explore -jsonl over 1, 2 and
// 3 workers emits byte-for-byte the single-node JSONL.
func TestExploreJSONLByteIdentical(t *testing.T) {
	want := singleNodeJSONL(t)
	urls := startFleet(t, 3)
	for n := 1; n <= len(urls); n++ {
		args := append([]string{"explore",
			"-workers", strings.Join(urls[:n], ","),
			"-shard-size", "7", "-jsonl"}, gridArgs...)
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("workers=%d: exit %d: %s", n, code, errOut.String())
		}
		if out.String() != want {
			t.Errorf("workers=%d: JSONL diverges from single-node output", n)
		}
		if !strings.Contains(errOut.String(), "explored 144 candidates") {
			t.Errorf("workers=%d: summary line missing from stderr: %q", n, errOut.String())
		}
	}
}

// TestExploreViaCoordinator: -via delegates to the server-side
// coordinator and still prints byte-identical JSONL.
func TestExploreViaCoordinator(t *testing.T) {
	want := singleNodeJSONL(t)
	urls := startFleet(t, 3)
	args := append([]string{"explore",
		"-workers", strings.Join(urls[1:], ","),
		"-via", urls[0],
		"-shard-size", "7", "-jsonl"}, gridArgs...)
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if out.String() != want {
		t.Error("-via JSONL diverges from single-node output")
	}
}

// TestExploreTableMode: the human-readable report carries the fleet
// statistics block.
func TestExploreTableMode(t *testing.T) {
	urls := startFleet(t, 2)
	args := append([]string{"explore", "-workers", strings.Join(urls, ","), "-shard-size", "16"}, gridArgs...)
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"explored 144 candidates", "top 10 by max-speedup", "Pareto frontier", "fleet: 2 workers, 9 shards"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table output missing %q:\n%s", want, out.String())
		}
	}
}

// TestStatusCommand: status prints one line per worker and fails when
// any is down.
func TestStatusCommand(t *testing.T) {
	urls := startFleet(t, 2)
	var out, errOut bytes.Buffer
	if code := run([]string{"status", "-workers", strings.Join(urls, ",")}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if strings.Count(out.String(), ": up ") != 2 {
		t.Errorf("status output:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	down := urls[0] + "," + "http://127.0.0.1:1"
	if code := run([]string{"status", "-workers", down, "-timeout", "2s"}, &out, &errOut); code != 1 {
		t.Fatalf("status with a down worker: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "DOWN") {
		t.Errorf("status output misses the down worker:\n%s", out.String())
	}
}

// TestUsageContract: usage mistakes exit 2 with the usage text,
// runtime failures exit 1.
func TestUsageContract(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"explore"},                          // missing -workers
		{"explore", "-workers", "not-a-url"}, // bad scheme
		{"explore", "-workers", "http://"},   // no host
		{"explore", "-workers", "http://h", "-buffering", "sometimes"},
		{"explore", "-workers", "http://h", "-nope"},
		{"status"},
		{"status", "-workers", "http://"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}

	// An unreachable fleet is a runtime failure, not a usage error.
	var out, errOut bytes.Buffer
	args := []string{"explore", "-workers", "http://127.0.0.1:1",
		"-shard-timeout", "200ms", "-timeout", "5s", "-clocks", "75"}
	if code := run(args, &out, &errOut); code != 1 {
		t.Errorf("unreachable fleet: exit %d, want 1 (%s)", code, errOut.String())
	}

	// So is a worksheet whose derived numbers overflow (t_comm +Inf):
	// it is refused before the fleet is contacted.
	p := paper.PDF1DParams()
	p.Dataset.BytesPerElement = 1e300
	p.Dataset.ElementsIn = 1 << 40
	errOut.Reset()
	args = []string{"explore", "-workers", "http://127.0.0.1:1", "-worksheet", worksheetFile(t, p)}
	if code := run(args, &out, &errOut); code != 1 || !strings.Contains(errOut.String(), "TComm") {
		t.Errorf("overflowing worksheet: exit %d (%s), want 1 naming TComm", code, errOut.String())
	}
}
