package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/api"
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

// singleNodeJSONL is the reference output: the ?stream=jsonl body
// that the ratd at url streams for the request gridArgs describe,
// without its closing summary line, whose elapsed time differs from
// run to run.
func singleNodeJSONL(t *testing.T, url string) string {
	t.Helper()
	body, err := json.Marshal(api.ExploreRequest{
		Worksheet:       worksheet.DocFromParams(paper.PDF1DParams()),
		ClocksMHz:       []float64{75, 100, 150},
		ThroughputProcs: []float64{10, 20, 40},
		Alphas:          []float64{0.16, 0.37},
		BlockSizes:      []int64{512, 2048},
		Devices:         []int{1, 4},
		Topology:        "independent",
		TopK:            10,
		Frontier:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/explore?stream=jsonl", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stream, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || len(stream) == 0 {
		t.Fatalf("ratd stream: HTTP %d, %v: %s", resp.StatusCode, err, stream)
	}
	cut := bytes.LastIndexByte(stream[:len(stream)-1], '\n') + 1
	if !bytes.HasPrefix(stream[cut:], []byte(`{"kind":"summary"`)) {
		t.Fatalf("ratd stream does not end with its summary line: %s", stream[cut:])
	}
	return string(stream[:cut])
}

// TestExploreJSONLByteIdentical: ratctl explore -jsonl over 1, 2 and
// 3 workers emits byte-for-byte the single-node JSONL.
func TestExploreJSONLByteIdentical(t *testing.T) {
	urls := startFleet(t, 3)
	want := singleNodeJSONL(t, urls[0])
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

// TestExploreJSONLMetrics: with -jsonl, the -metrics block goes to
// stderr beside the summary line, and stdout stays the single-node
// JSONL.
func TestExploreJSONLMetrics(t *testing.T) {
	urls := startFleet(t, 1)
	args := append([]string{"explore", "-workers", urls[0], "-jsonl", "-metrics"}, gridArgs...)
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if out.String() != singleNodeJSONL(t, urls[0]) {
		t.Errorf("-metrics changed the JSONL on stdout:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "rat_cluster_shards_completed_total") {
		t.Errorf("-metrics block missing from stderr: %q", errOut.String())
	}
}

// TestExploreViaCoordinator: -via delegates to the server-side
// coordinator and still prints byte-identical JSONL.
func TestExploreViaCoordinator(t *testing.T) {
	urls := startFleet(t, 3)
	want := singleNodeJSONL(t, urls[0])
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
		{"explore", "-workers", "http://h", "-via", "http://c", "-metrics"}, // the coordinator's /metrics has them
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
