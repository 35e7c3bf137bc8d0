package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/wire"
	"github.com/chrec/rat/internal/worksheet"
)

// encodeWorksheet marshals p in the worksheet JSON form.
func encodeWorksheet(t *testing.T, p core.Parameters) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := worksheet.EncodeJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postPredict sends one worksheet to /v1/predict and returns the raw
// response.
func postPredict(t *testing.T, ts *httptest.Server, p core.Parameters, query string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/predict"+query, "application/json",
		bytes.NewReader(encodeWorksheet(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestPredictRoundTripBitForBit pins the headline contract: all three
// paper case studies served over HTTP decode back to exactly the
// prediction rat.Predict computes — compared with !=, no tolerance.
func TestPredictRoundTripBitForBit(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		p := paper.Params(c)
		want, err := core.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		status, body := postPredict(t, ts, p, "")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c, status, body)
		}
		var wire api.Prediction
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if got := wire.Core(); got != want {
			t.Errorf("%s: served prediction differs from rat.Predict\n got %+v\nwant %+v", c, got, want)
		}
	}
}

// TestPredictMultiRoundTripBitForBit does the same for the multi-FPGA
// extension via the devices/topology query parameters.
func TestPredictMultiRoundTripBitForBit(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		for _, q := range []struct {
			query string
			cfg   core.MultiConfig
		}{
			{"?devices=2", core.MultiConfig{Devices: 2, Topology: core.SharedChannel}},
			{"?devices=4&topology=independent", core.MultiConfig{Devices: 4, Topology: core.IndependentChannels}},
		} {
			p := paper.Params(c)
			want, err := core.PredictMulti(p, q.cfg)
			if err != nil {
				t.Fatal(err)
			}
			status, body := postPredict(t, ts, p, q.query)
			if status != http.StatusOK {
				t.Fatalf("%s%s: status %d: %s", c, q.query, status, body)
			}
			var wire api.MultiPrediction
			if err := json.Unmarshal(body, &wire); err != nil {
				t.Fatal(err)
			}
			if got := wire.Core(); got != want {
				t.Errorf("%s%s: served prediction differs from rat.PredictMulti", c, q.query)
			}
		}
	}
}

// TestCachingByteIdentical proves the response cache is invisible:
// responses from a caching server are byte-identical to a server with
// the cache disabled — on the misses that fill it, on hits (the same
// request bytes replayed) and on the misses of the same worksheet in
// different bytes. Requests go out concurrently so -race also covers
// the cache's locking.
func TestCachingByteIdentical(t *testing.T) {
	plain := httptest.NewServer(New(Config{CacheSize: -1}).Handler())
	defer plain.Close()
	cachedSrv := New(Config{CacheSize: 64})
	reg := cachedSrv.Metrics()
	cached := httptest.NewServer(cachedSrv.Handler())
	defer cached.Close()

	worksheets := make([][]byte, 16)
	plainBodies := make([][]byte, len(worksheets))
	for i := range worksheets {
		p := paper.PDF1DParams()
		p.Comp.ClockHz = core.MHz(float64(50 + i))
		worksheets[i] = encodeWorksheet(t, p)
		status, body := postPredict(t, plain, p, "")
		if status != http.StatusOK {
			t.Fatalf("plain %d: status %d", i, status)
		}
		plainBodies[i] = body
	}

	// Pass 0 misses and fills, pass 1 replays the same bytes (hits),
	// pass 2 sends each worksheet compacted (new bytes: misses).
	for pass := 0; pass < 3; pass++ {
		var wg sync.WaitGroup
		bodies := make([][]byte, len(worksheets))
		errs := make([]error, len(worksheets))
		for i, ws := range worksheets {
			if pass == 2 {
				var compact bytes.Buffer
				if err := json.Compact(&compact, ws); err != nil {
					t.Fatal(err)
				}
				ws = compact.Bytes()
			}
			wg.Add(1)
			go func(i int, ws []byte) {
				defer wg.Done()
				resp, err := http.Post(cached.URL+"/v1/predict", "application/json", bytes.NewReader(ws))
				if err != nil {
					errs[i] = err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs[i] = fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				bodies[i], errs[i] = io.ReadAll(resp.Body)
			}(i, ws)
		}
		wg.Wait()
		for i := range worksheets {
			if errs[i] != nil {
				t.Fatalf("pass %d worksheet %d: %v", pass, i, errs[i])
			}
			if !bytes.Equal(bodies[i], plainBodies[i]) {
				t.Errorf("pass %d worksheet %d: cached response differs from uncached response\n got %s\nwant %s",
					pass, i, bodies[i], plainBodies[i])
			}
		}
	}

	snap := reg.Snapshot()
	if hits, misses := snap.Counters["server.cache_hits"], snap.Counters["server.cache_misses"]; hits != 16 || misses != 32 {
		t.Errorf("cache hits/misses = %d/%d, want 16/32", hits, misses)
	}
}

// TestPredictBatchEndpoint checks /v1/predict/batch against scalar
// predictions, element by element, bit for bit.
func TestPredictBatchEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	ps := []core.Parameters{paper.PDF1DParams(), paper.PDF2DParams(), paper.MDParams()}
	docs := make([]worksheet.Doc, len(ps))
	for i, p := range ps {
		docs[i] = worksheet.DocFromParams(p)
	}
	body, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out []api.Prediction
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(ps) {
		t.Fatalf("got %d predictions for %d worksheets", len(out), len(ps))
	}
	for i, p := range ps {
		want, err := core.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := out[i].Core(); got != want {
			t.Errorf("batch element %d differs from rat.Predict", i)
		}
	}

	// A batch with one invalid worksheet names the offending index.
	bad := docs
	bad[1].Dataset.ElementsIn = -3
	body, _ = json.Marshal(bad)
	resp2, err := http.Post(ts.URL+"/v1/predict/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	msg, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid batch: status %d, want 400", resp2.StatusCode)
	}
	if !strings.Contains(string(msg), "index 1") {
		t.Errorf("invalid batch error does not name the index: %s", msg)
	}
}

// TestBatchSlabHoldsNoNames: the batch decoders take worksheet names
// as views of the pooled request body, so a slab back in its pool must
// hold none of them, in its parameters or its predictions, JSON and
// binary alike.
func TestBatchSlabHoldsNoNames(t *testing.T) {
	h := New(Config{}).Handler()
	ps := []core.Parameters{paper.PDF1DParams(), paper.PDF2DParams(), paper.MDParams()}
	docs := make([]worksheet.Doc, len(ps))
	for i, p := range ps {
		docs[i] = worksheet.DocFromParams(p)
	}
	jsonBody, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body        []byte
		contentType string
	}{
		{jsonBody, "application/json"},
		{wire.AppendBinaryWorksheets(nil, ps), wire.ContentTypeBinary},
	} {
		checked := false
		// The pool may drop what it is given (the race detector makes
		// it drop a quarter of it), so retry until it hands the used
		// slab back.
		for attempt := 0; attempt < 20 && !checked; attempt++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict/batch", bytes.NewReader(tc.body))
			req.Header.Set("Content-Type", tc.contentType)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s batch: status %d: %s", tc.contentType, rec.Code, rec.Body)
			}
			sl := batchSlabs.Get().(*slab)
			if cap(sl.ps) >= len(ps) {
				checked = true
				for i, p := range sl.ps[:cap(sl.ps)] {
					if p.Name != "" {
						t.Errorf("%s batch: pooled slab keeps name %q at parameter %d", tc.contentType, p.Name, i)
					}
				}
				for i, pr := range sl.out[:cap(sl.out)] {
					if pr.Params.Name != "" {
						t.Errorf("%s batch: pooled slab keeps name %q at prediction %d", tc.contentType, pr.Params.Name, i)
					}
				}
			}
			batchSlabs.Put(sl)
		}
		if !checked {
			t.Errorf("%s batch: the pool never handed back a used slab", tc.contentType)
		}
	}
}

// TestExploreEndpoint cross-checks the served exploration against a
// direct explore.Run and exercises the candidate ceiling and the JSONL
// streaming mode.
func TestExploreEndpoint(t *testing.T) {
	srv := New(Config{MaxExploreCandidates: 1000})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := api.ExploreRequest{
		Worksheet:  worksheet.DocFromParams(paper.PDF1DParams()),
		ClocksMHz:  []float64{75, 100, 150},
		Bufferings: []string{"single", "double"},
		TopK:       3,
		Frontier:   true,
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var got api.ExploreResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	grid, err := req.Grid()
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := req.Options(0)
	want, err := explore.Run(grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != want.Evaluated || got.Feasible != want.Feasible {
		t.Errorf("evaluated/feasible = %d/%d, want %d/%d",
			got.Evaluated, got.Feasible, want.Evaluated, want.Feasible)
	}
	if len(got.Top) != len(want.Top) {
		t.Fatalf("top length %d, want %d", len(got.Top), len(want.Top))
	}
	for i := range want.Top {
		if got.Top[i].Index != want.Top[i].Index || got.Top[i].Speedup != want.Top[i].Speedup {
			t.Errorf("top[%d] = index %d speedup %v, want index %d speedup %v",
				i, got.Top[i].Index, got.Top[i].Speedup, want.Top[i].Index, want.Top[i].Speedup)
		}
	}
	if len(got.Frontier) != len(want.Frontier) {
		t.Errorf("frontier length %d, want %d", len(got.Frontier), len(want.Frontier))
	}

	// Streaming mode: same candidates as JSONL plus a summary line.
	resp2, err := http.Post(ts.URL+"/v1/explore?stream=jsonl", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("streaming content type %q", ct)
	}
	var tops, frontiers, summaries int
	dec := json.NewDecoder(resp2.Body)
	for {
		var line api.ExploreLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		switch line.Kind {
		case "top":
			tops++
		case "frontier":
			frontiers++
		case "summary":
			summaries++
			if line.Summary.Evaluated != want.Evaluated {
				t.Errorf("summary evaluated = %d, want %d", line.Summary.Evaluated, want.Evaluated)
			}
		default:
			t.Errorf("unknown line kind %q", line.Kind)
		}
	}
	if tops != len(want.Top) || frontiers != len(want.Frontier) || summaries != 1 {
		t.Errorf("stream lines top/frontier/summary = %d/%d/%d, want %d/%d/1",
			tops, frontiers, summaries, len(want.Top), len(want.Frontier))
	}

	// The ceiling refuses oversized grids outright.
	big := req
	big.ClocksMHz = nil
	for mhz := 1; mhz <= 600; mhz++ {
		big.ClocksMHz = append(big.ClocksMHz, float64(mhz))
	}
	body, _ = json.Marshal(big)
	resp3, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized grid: status %d, want 413", resp3.StatusCode)
	}
}

// TestRenderedBodiesHaveLength: a fully rendered body longer than
// net/http's pre-chunking buffer is sent with its Content-Length, not
// chunked: a 4-worksheet batch, a top-10 explore and its JSONL form.
func TestRenderedBodiesHaveLength(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	ps := []core.Parameters{paper.PDF1DParams(), paper.PDF2DParams(), paper.MDParams(), paper.PDF1DParams()}
	docs := make([]worksheet.Doc, len(ps))
	for i, p := range ps {
		docs[i] = worksheet.DocFromParams(p)
	}
	batch, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	exploreReq, err := json.Marshal(api.ExploreRequest{
		Worksheet: worksheet.DocFromParams(paper.PDF1DParams()),
		ClocksMHz: []float64{75, 100, 125, 150, 175, 200},
		TopK:      10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/v1/predict/batch", batch},
		{"/v1/explore", exploreReq},
		{"/v1/explore?stream=jsonl", exploreReq},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, resp.StatusCode, body)
		}
		if len(body) <= chunkingBuffer {
			t.Fatalf("%s: a %d-byte body fits net/http's buffer and tests nothing", tc.path, len(body))
		}
		if resp.ContentLength != int64(len(body)) || resp.TransferEncoding != nil {
			t.Errorf("%s: Content-Length %d and Transfer-Encoding %v for a %d-byte body",
				tc.path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestPredictErrors maps request defects to status codes.
func TestPredictErrors(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	post := func(body, query string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/predict"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}

	if status, _ := post("{not json", ""); status != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", status)
	}
	if status, _ := post(`{"unknown_field": 1}`, ""); status != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", status)
	}
	valid := string(encodeWorksheet(t, paper.PDF1DParams()))
	if status, _ := post(valid, "?devices=0"); status != http.StatusBadRequest {
		t.Errorf("devices=0: status %d, want 400", status)
	}
	if status, _ := post(valid, "?topology=ring"); status != http.StatusBadRequest {
		t.Errorf("bad topology: status %d, want 400", status)
	}
	invalid := strings.Replace(valid, `"elements_in": 512`, `"elements_in": -1`, 1)
	if status, msg := post(invalid, ""); status != http.StatusBadRequest {
		t.Errorf("invalid worksheet: status %d (%s), want 400", status, msg)
	}

	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict: status %d, want 405", resp.StatusCode)
	}
}

// TestBodySizeCap pins the one body-size rule of every POST endpoint:
// a request padded with trailing whitespace to exactly maxBodyBytes is
// served, and one byte more is a 400 naming the cap, in either wire
// format.
func TestBodySizeCap(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dist := distExploreRequest([]string{ts.URL})
	cases := []struct {
		path, contentType string
		body              []byte // nil: no request of this kind fits under the cap
	}{
		{"/v1/predict", "application/json", encodeWorksheet(t, paper.PDF1DParams())},
		{"/v1/predict", wire.ContentTypeBinary, nil},
		{"/v1/predict/batch", "application/json", marshal([]worksheet.Doc{worksheet.DocFromParams(paper.PDF1DParams())})},
		{"/v1/explore", "application/json", marshal(dist.Explore)},
		{"/v1/explore/distributed", "application/json", marshal(dist)},
	}
	post := func(path, contentType string, body []byte) (int, string) {
		resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	pad := func(body []byte, n int) []byte {
		return append(append([]byte(nil), body...), bytes.Repeat([]byte(" "), n-len(body))...)
	}
	for _, c := range cases {
		if c.body != nil {
			if status, msg := post(c.path, c.contentType, pad(c.body, maxBodyBytes)); status != http.StatusOK {
				t.Errorf("%s %s at the cap: status %d (%s), want 200", c.path, c.contentType, status, msg)
			}
		}
		over := pad(c.body, maxBodyBytes+1)
		status, msg := post(c.path, c.contentType, over)
		if status != http.StatusBadRequest || !strings.Contains(msg, "larger than 1048576 bytes") {
			t.Errorf("%s %s one byte over the cap: status %d (%s), want 400 naming the cap",
				c.path, c.contentType, status, msg)
		}
	}
}

// TestNonFiniteWorksheetRejected: a worksheet whose every field passes
// validation but whose derived quantities overflow (t_write +Inf,
// util_comm NaN) is a 400 naming the first such quantity on every
// predict route in both wire formats — never a 5xx, never a 200
// carrying a non-finite number.
func TestNonFiniteWorksheetRejected(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	bad := paper.PDF1DParams()
	bad.Dataset.BytesPerElement = 1e300
	bad.Dataset.ElementsIn = 1 << 40
	good := paper.PDF2DParams()
	jsonBatch := append(append(append([]byte("["), encodeWorksheet(t, good)...), ','), encodeWorksheet(t, bad)...)
	jsonBatch = append(jsonBatch, ']')

	for _, route := range []struct {
		path      string
		json, bin []byte
		want      string
	}{
		{"/v1/predict", encodeWorksheet(t, bad), wire.AppendBinaryWorksheet(nil, bad), "TWrite must be finite"},
		{"/v1/predict?devices=2", encodeWorksheet(t, bad), wire.AppendBinaryWorksheet(nil, bad), "TWrite must be finite"},
		{"/v1/predict/batch", jsonBatch, wire.AppendBinaryWorksheets(nil, []core.Parameters{good, bad}), "batch index 1: "},
	} {
		for _, bin := range []bool{false, true} {
			body := route.json
			if bin {
				body = route.bin
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+route.path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if bin {
				req.Header.Set("Content-Type", wire.ContentTypeBinary)
				req.Header.Set("Accept", wire.ContentTypeBinary)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var e api.Error
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &e) != nil {
				t.Errorf("%s binary=%v: status %d body %q, want a 400 JSON error", route.path, bin, resp.StatusCode, out)
				continue
			}
			if !strings.Contains(e.Error, route.want) || !strings.Contains(e.Error, "TWrite") {
				t.Errorf("%s binary=%v: error %q does not name the overflowing quantity (want %q)", route.path, bin, e.Error, route.want)
			}
		}
	}
}

// TestExploreWorkersDerived: a served exploration runs
// max(1, GOMAXPROCS/ExploreLimit) engine workers, derived once in New,
// and a default-config /v1/explore reports that count as "workers".
func TestExploreWorkersDerived(t *testing.T) {
	srv := New(Config{})
	procs, limit := runtime.GOMAXPROCS(0), srv.cfg.ExploreLimit
	if want := max(1, procs/limit); srv.exploreWorkers != want {
		t.Fatalf("derived %d engine workers, want max(1, GOMAXPROCS %d / ExploreLimit %d) = %d",
			srv.exploreWorkers, procs, limit, want)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req := api.ExploreRequest{Worksheet: worksheet.DocFromParams(paper.PDF1DParams())}
	for i := 1; i <= 16; i++ {
		req.ClocksMHz = append(req.ClocksMHz, float64(25*i))
		req.ThroughputProcs = append(req.ThroughputProcs, float64(i))
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got api.ExploreResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d (%v)", resp.StatusCode, err)
	}
	// The engine never runs more workers than candidates.
	if want := min(uint64(srv.exploreWorkers), got.Evaluated); uint64(got.Workers) != want {
		t.Errorf("/v1/explore reports %d workers over %d candidates, want the derived %d",
			got.Workers, got.Evaluated, want)
	}
}

// TestExploreOverflowRejected: the same overflowing worksheet is a 400
// naming the quantity on /v1/explore, in JSON and JSONL, with and
// without the frontier, and on /v1/explore/distributed — never a 500
// from the encoder or a 200 whose stream stops before its summary.
func TestExploreOverflowRejected(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	bad := paper.PDF1DParams()
	bad.Dataset.BytesPerElement = 1e300
	bad.Dataset.ElementsIn = 1 << 40
	check := func(name, path string, req any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &e) != nil {
			t.Errorf("%s: status %d body %q, want a 400 JSON error", name, resp.StatusCode, out)
			return
		}
		if !strings.Contains(e.Error, "TComm") || !strings.Contains(e.Error, "1099511627776") {
			t.Errorf("%s: error %q does not name TComm at block size 1099511627776", name, e.Error)
		}
	}
	for _, frontier := range []bool{false, true} {
		req := api.ExploreRequest{
			Worksheet: worksheet.DocFromParams(bad),
			ClocksMHz: []float64{75, 100, 150},
			TopK:      3,
			Frontier:  frontier,
		}
		for _, path := range []string{"/v1/explore", "/v1/explore?stream=jsonl"} {
			check(fmt.Sprintf("%s frontier=%v", path, frontier), path, req)
		}
		check(fmt.Sprintf("/v1/explore/distributed frontier=%v", frontier), "/v1/explore/distributed",
			api.DistributedExploreRequest{Explore: req, Workers: []string{ts.URL}})
	}
}

// TestAdmissionControlBurst pins the acceptance criterion: with a
// predict concurrency limit of N, a burst of 4N requests admits at
// most N at a time (telemetry high-water mark) and answers the
// overflow with 429 + Retry-After.
func TestAdmissionControlBurst(t *testing.T) {
	const limit = 4
	srv := New(Config{
		CacheSize:     -1,
		PredictLimit:  limit,
		AdmissionWait: 10 * time.Millisecond,
	})
	reg := srv.Metrics()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Every body is a pipe the test has not written yet. The handler
	// admits before it reads the body, so the first N requests hold
	// their slots while the rest of the burst queues behind them.
	const burst = 4 * limit
	statuses := make([]int, burst)
	retryAfter := make([]string, burst)
	writers := make([]*io.PipeWriter, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		pr, pw := io.Pipe()
		writers[i] = pw
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", pr)
			if err != nil {
				statuses[i] = -1
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counters["server.rejected.predict"] < burst-limit && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i, pw := range writers {
		p := paper.PDF1DParams()
		p.Comp.ClockHz = core.MHz(float64(100 + i))
		go func(pw *io.PipeWriter, body []byte) {
			pw.Write(body)
			pw.Close()
		}(pw, encodeWorksheet(t, p))
	}
	wg.Wait()

	var ok200, busy429 int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			busy429++
			if retryAfter[i] == "" {
				t.Error("429 response missing Retry-After")
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, st)
		}
	}
	if ok200 != limit || busy429 != burst-limit {
		t.Errorf("200s/429s = %d/%d, want %d/%d: the %d held requests must be the only ones admitted",
			ok200, busy429, limit, burst-limit, limit)
	}

	snap := reg.Snapshot()
	if peak := snap.Gauges[`rat_inflight_peak{endpoint="predict"}`]; peak != limit {
		t.Errorf("inflight peak gauge = %v, want %d", peak, limit)
	}
	if snap.Counters["server.rejected.predict"] != int64(busy429) {
		t.Errorf("rejected counter = %d, want %d", snap.Counters["server.rejected.predict"], busy429)
	}
}

// manyClocks returns n distinct clock values for grid-size tests.
func manyClocks(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 100 + float64(i)
	}
	return out
}

// TestExploreOverloadKeepsCeiling pins that sustained capacity 429s
// never change what the server admits: with the one explore slot
// held, more than a second of explores are all refused 429, and once
// the slot frees, an explore inside MaxExploreCandidates is answered
// 200, never 413.
func TestExploreOverloadKeepsCeiling(t *testing.T) {
	srv := New(Config{ExploreLimit: 1, AdmissionWait: time.Millisecond, MaxExploreCandidates: 1000})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	exploreBody := func(candidates int) []byte {
		body, err := json.Marshal(map[string]any{
			"worksheet":  json.RawMessage(encodeWorksheet(t, paper.PDF1DParams())),
			"clocks_mhz": manyClocks(candidates),
		})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	postExplore := func(body io.Reader) (int, error) {
		resp, err := http.Post(ts.URL+"/v1/explore", "application/json", body)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}

	// The handler admits before it reads the body, so an unwritten
	// pipe holds the explore slot.
	pr, pw := io.Pipe()
	defer pw.Close() // on a failure path, lets ts.Close finish the held request
	held := make(chan int, 1)
	go func() {
		status, err := postExplore(pr)
		if err != nil {
			t.Error(err)
		}
		held <- status
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Snapshot().Counters["server.admitted.explore"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the held explore was never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	small := exploreBody(10)
	var refused int
	for end := time.Now().Add(1100 * time.Millisecond); time.Now().Before(end); refused++ {
		status, err := postExplore(bytes.NewReader(small))
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusTooManyRequests {
			t.Fatalf("explore %d with the only slot held: status %d, want 429", refused, status)
		}
	}

	pw.Write(small)
	pw.Close()
	if status := <-held; status != http.StatusOK {
		t.Fatalf("held explore: status %d, want 200", status)
	}
	status, err := postExplore(bytes.NewReader(exploreBody(300)))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Errorf("300-candidate explore (ceiling 1000) after %d refusals: status %d, want 200", refused, status)
	}
}

// TestHealthReadyMetrics covers the operational endpoints.
func TestHealthReadyMetrics(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if st, body := get("/healthz"); st != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", st, body)
	}
	if st, body := get("/readyz"); st != http.StatusOK || body != "ready\n" {
		t.Errorf("/readyz = %d %q", st, body)
	}

	postPredict(t, ts, paper.PDF1DParams(), "")
	if st, body := get("/metrics"); st != http.StatusOK ||
		!strings.Contains(body, "rat_requests_total") ||
		!strings.Contains(body, "rat_request_seconds") {
		t.Errorf("/metrics = %d:\n%s", st, body)
	}

	srv.draining.Store(true)
	if st, body := get("/readyz"); st != http.StatusServiceUnavailable || body != "draining\n" {
		t.Errorf("draining /readyz = %d %q", st, body)
	}
	if st, _ := get("/healthz"); st != http.StatusOK {
		t.Errorf("draining /healthz = %d, want 200 (liveness is not readiness)", st)
	}
}

// TestPanicRecovery proves a handler panic yields a well-formed 500,
// not a dropped connection, and bumps the panic counter.
func TestPanicRecovery(t *testing.T) {
	srv := New(Config{})
	reg := srv.Metrics()
	// Reach the middleware through a handler that always panics.
	h := srv.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/predict", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	var e api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("panic response is not an error body: %q", rec.Body.String())
	}
	if reg.Snapshot().Counters["rat_panics_total"] != 1 {
		t.Error("panic counter not bumped")
	}
}
