package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

// distExploreRequest is the 144-candidate fixture grid in its
// distributed wire form.
func distExploreRequest(workers []string) api.DistributedExploreRequest {
	return api.DistributedExploreRequest{
		Explore: api.ExploreRequest{
			Worksheet:       worksheet.DocFromParams(paper.PDF1DParams()),
			ClocksMHz:       []float64{75, 100, 150},
			ThroughputProcs: []float64{10, 20, 40},
			Alphas:          []float64{0.16, 0.37},
			BlockSizes:      []int64{512, 2048},
			Devices:         []int{1, 4},
			Topology:        "independent",
			Objective:       "max-speedup",
			TopK:            10,
			Frontier:        true,
		},
		Workers:   workers,
		ShardSize: 8, // more shards than admission slots: real queueing
	}
}

func postDistributed(t *testing.T, coordURL string, req api.DistributedExploreRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(coordURL+"/v1/explore/distributed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestDistributedExploreMatchesSingleNode: the coordinator endpoint,
// sharding across a three-ratd fleet, answers with exactly the
// candidates a single node returns for the same request — and repeated
// runs are byte-identical, shard interleaving notwithstanding.
func TestDistributedExploreMatchesSingleNode(t *testing.T) {
	var fleet []*httptest.Server
	var urls []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(New(Config{}).Handler())
		defer ts.Close()
		fleet = append(fleet, ts)
		urls = append(urls, ts.URL)
	}
	coord := httptest.NewServer(New(Config{}).Handler())
	defer coord.Close()

	dreq := distExploreRequest(urls)

	// The single-node reference: the same explore posted straight to
	// one worker.
	ebody, err := json.Marshal(dreq.Explore)
	if err != nil {
		t.Fatal(err)
	}
	eresp, err := http.Post(fleet[0].URL+"/v1/explore", "application/json", bytes.NewReader(ebody))
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	var single api.ExploreResponse
	if err := json.NewDecoder(eresp.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}

	resp, body := postDistributed(t, coord.URL, dreq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distributed explore: HTTP %d: %s", resp.StatusCode, body)
	}
	var dist api.DistributedExploreResponse
	if err := json.Unmarshal(body, &dist); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Top, single.Top) {
		t.Errorf("distributed top diverges from single-node:\n got  %+v\n want %+v", dist.Top, single.Top)
	}
	if !reflect.DeepEqual(dist.Frontier, single.Frontier) {
		t.Errorf("distributed frontier diverges from single-node:\n got  %+v\n want %+v", dist.Frontier, single.Frontier)
	}
	if dist.Evaluated != single.Evaluated || dist.Feasible != single.Feasible {
		t.Errorf("distributed counts (%d, %d), want (%d, %d)",
			dist.Evaluated, dist.Feasible, single.Evaluated, single.Feasible)
	}
	if dist.Cluster.Workers != 3 || dist.Cluster.Shards != 18 {
		t.Errorf("cluster stats %+v, want 3 workers, 18 shards", dist.Cluster)
	}

	// Determinism on the wire: a second identical request must be
	// byte-identical except the run-shaped telemetry fields, which a
	// normalizing re-marshal strips.
	resp2, body2 := postDistributed(t, coord.URL, dreq)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second distributed explore: HTTP %d: %s", resp2.StatusCode, body2)
	}
	var dist2 api.DistributedExploreResponse
	if err := json.Unmarshal(body2, &dist2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist2.Top, dist.Top) || !reflect.DeepEqual(dist2.Frontier, dist.Frontier) {
		t.Error("two identical distributed requests returned different candidates")
	}
}

// TestDistributedExploreSelfCoordination: the coordinator may list
// itself as a worker and still complete — its explore admission keeps
// a slot free for its own shards.
func TestDistributedExploreSelfCoordination(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	resp, body := postDistributed(t, ts.URL, distExploreRequest([]string{ts.URL}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("self-coordinated explore: HTTP %d: %s", resp.StatusCode, body)
	}
	var dist api.DistributedExploreResponse
	if err := json.Unmarshal(body, &dist); err != nil {
		t.Fatal(err)
	}
	if dist.Evaluated != 144 || len(dist.Top) == 0 {
		t.Errorf("self-coordinated run evaluated %d with %d top candidates", dist.Evaluated, len(dist.Top))
	}
}

// TestDistributedExploreRejections: malformed requests get 4xx before
// any worker is touched; an unreachable fleet gets 502.
func TestDistributedExploreRejections(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxDistributedCandidates: 100}).Handler())
	defer ts.Close()

	t.Run("no workers", func(t *testing.T) {
		resp, body := postDistributed(t, ts.URL, distExploreRequest(nil))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s, want 400", resp.StatusCode, body)
		}
	})
	t.Run("bad worker URL", func(t *testing.T) {
		dreq := distExploreRequest([]string{"worker-one:8080"})
		dreq.Explore.IndexLo, dreq.Explore.IndexHi = 0, 16 // under the ceiling, so URL validation is what rejects
		resp, body := postDistributed(t, ts.URL, dreq)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s, want 400", resp.StatusCode, body)
		}
	})
	t.Run("worker URL without a host", func(t *testing.T) {
		dreq := distExploreRequest([]string{"http://"})
		dreq.Explore.IndexLo, dreq.Explore.IndexHi = 0, 16
		resp, body := postDistributed(t, ts.URL, dreq)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s, want 400", resp.StatusCode, body)
		}
	})
	t.Run("over the distributed ceiling", func(t *testing.T) {
		resp, body := postDistributed(t, ts.URL, distExploreRequest([]string{ts.URL}))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("HTTP %d: %s, want 413 over a 100-candidate ceiling", resp.StatusCode, body)
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/explore/distributed", "application/json",
			strings.NewReader(`{"workers": ["http://127.0.0.1:1"], "surprise": 1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d, want 400 on an unknown field", resp.StatusCode)
		}
	})
	t.Run("unreachable fleet", func(t *testing.T) {
		small := distExploreRequest([]string{"http://127.0.0.1:1"})
		small.Explore.IndexLo, small.Explore.IndexHi = 0, 16
		small.ShardTimeoutSeconds = 0.2
		resp, body := postDistributed(t, ts.URL, small)
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("HTTP %d: %s, want 502 for an unreachable fleet", resp.StatusCode, body)
		}
	})
}

// TestDistributedExploreForwardsAPIKey: on a tenanted fleet the
// coordinator forwards the caller's key, so worker shards are charged
// to the requesting tenant.
func TestDistributedExploreForwardsAPIKey(t *testing.T) {
	var mu sync.Mutex
	var saw []string
	worker := httptest.NewServer(New(Config{}).Handler())
	defer worker.Close()
	// A recording proxy in front of the worker captures what the
	// coordinator's shard requests carry.
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		saw = append(saw, r.Header.Get("Authorization"))
		mu.Unlock()
		r2, err := http.NewRequestWithContext(r.Context(), r.Method, worker.URL+r.URL.String(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		r2.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(r2)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		w.Write(buf.Bytes())
	}))
	defer proxy.Close()
	coord := httptest.NewServer(New(Config{}).Handler())
	defer coord.Close()

	dreq := distExploreRequest([]string{proxy.URL})
	body, err := json.Marshal(dreq)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, coord.URL+"/v1/explore/distributed", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer tenant-key-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(saw) == 0 {
		t.Fatal("no shard requests reached the worker")
	}
	for _, auth := range saw {
		if auth != "Bearer tenant-key-1" {
			t.Fatalf("shard request carried Authorization %q, want the caller's key", auth)
		}
	}
}

// TestExploreHugeTopK: a top_k far beyond the grid asks for every
// candidate. The server must not size anything by it: JSON, JSONL and
// distributed requests all answer 200 with the grid's 4 candidates,
// and the server stays up.
func TestExploreHugeTopK(t *testing.T) {
	worker := httptest.NewServer(New(Config{}).Handler())
	defer worker.Close()
	req := api.ExploreRequest{
		Worksheet: worksheet.DocFromParams(paper.PDF1DParams()),
		ClocksMHz: []float64{100, 150},
		TopK:      1 << 40,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(worker.URL+"/v1/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var one api.ExploreResponse
	err = json.NewDecoder(resp.Body).Decode(&one)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || len(one.Top) != 4 {
		t.Errorf("JSON: HTTP %d, %d candidates (%v), want 200 with all 4", resp.StatusCode, len(one.Top), err)
	}

	resp, err = http.Post(worker.URL+"/v1/explore?stream=jsonl", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var lines bytes.Buffer
	_, err = lines.ReadFrom(resp.Body)
	resp.Body.Close()
	if n := strings.Count(lines.String(), `"kind":"top"`); resp.StatusCode != http.StatusOK || err != nil || n != 4 {
		t.Errorf("JSONL: HTTP %d, %d top lines (%v), want 200 with all 4", resp.StatusCode, n, err)
	}

	coord := httptest.NewServer(New(Config{}).Handler())
	defer coord.Close()
	dresp, dbody := postDistributed(t, coord.URL, api.DistributedExploreRequest{
		Explore: req, Workers: []string{worker.URL}, ShardSize: 2,
	})
	var dist api.DistributedExploreResponse
	err = json.Unmarshal(dbody, &dist)
	if dresp.StatusCode != http.StatusOK || err != nil || len(dist.Top) != 4 {
		t.Errorf("distributed: HTTP %d, %d candidates (%v): %s; want 200 with all 4",
			dresp.StatusCode, len(dist.Top), err, dbody)
	}
}

// TestExploreEndpointsRejectAlike: /v1/explore and
// /v1/explore/distributed share one preparation path, so every request
// that one rejects before any work is done, the other rejects with the
// same 4xx. The worker list is unreachable: no case may get far enough
// to dispatch.
func TestExploreEndpointsRejectAlike(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	for _, tc := range []struct {
		name string
		mod  func(*api.ExploreRequest)
	}{
		{"unknown topology", func(r *api.ExploreRequest) { r.Topology = "ring" }},
		{"unknown buffering", func(r *api.ExploreRequest) { r.Bufferings = []string{"triple"} }},
		{"unknown objective", func(r *api.ExploreRequest) { r.Objective = "max-fun" }},
		{"duplicate clock", func(r *api.ExploreRequest) { r.ClocksMHz = []float64{100, 100} }},
		{"invalid base", func(r *api.ExploreRequest) { r.Worksheet.Comp.ClockMHz = -1 }},
		{"overflowing base", func(r *api.ExploreRequest) {
			r.Worksheet.Dataset.BytesPerElement = 1e300
			r.BlockSizes = []int64{1 << 40}
		}},
		{"index range past the grid", func(r *api.ExploreRequest) { r.IndexLo, r.IndexHi = 0, 1000 }},
		{"empty index range", func(r *api.ExploreRequest) { r.IndexLo, r.IndexHi = 5, 5 }},
	} {
		dreq := distExploreRequest([]string{"http://127.0.0.1:1"})
		tc.mod(&dreq.Explore)
		resp, dbody := postDistributed(t, ts.URL, dreq)
		body, err := json.Marshal(dreq.Explore)
		if err != nil {
			t.Fatal(err)
		}
		single, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		single.Body.Close()
		if single.StatusCode != http.StatusBadRequest || resp.StatusCode != single.StatusCode {
			t.Errorf("%s: /v1/explore answered %d, /v1/explore/distributed %d (%s); want 400 from both",
				tc.name, single.StatusCode, resp.StatusCode, dbody)
		}
	}
}
