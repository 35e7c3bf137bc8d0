package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/obs"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/telemetry"
	"github.com/chrec/rat/internal/worksheet"
)

func predictBody(t testing.TB) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := worksheet.EncodeJSON(&body, paper.PDF1DParams()); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// TestTraceHeaderEcho: a request carrying X-Rat-Trace gets the exact
// value echoed on the response, traced or not, success or error.
func TestTraceHeaderEcho(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	hdr := obs.FormatTraceHeader(obs.NewTraceID(), obs.NewSpanID())

	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(t)))
	req.Header.Set(obs.TraceHeader, hdr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(obs.TraceHeader); got != hdr {
		t.Errorf("trace header echo = %q, want %q", got, hdr)
	}

	// Malformed header: ignored, not echoed (and no crash).
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(t)))
	req.Header.Set(obs.TraceHeader, "not-a-trace")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get(obs.TraceHeader); got != "" {
		t.Errorf("malformed trace header echoed as %q, want empty", got)
	}

	// Untraced request without logging: no header is minted.
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(t)))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(obs.TraceHeader); got != "" {
		t.Errorf("untraced request got minted header %q", got)
	}
}

// TestTraceGeneratedWhenLogging: with an access logger configured the
// server mints a trace for bare requests so every log line has an ID,
// and the response carries it.
func TestTraceGeneratedWhenLogging(t *testing.T) {
	var logBuf bytes.Buffer
	srv := New(Config{
		AccessLogger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(t)))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	hdr := rec.Header().Get(obs.TraceHeader)
	id, _, ok := obs.ParseTraceHeader(hdr)
	if !ok || id.IsZero() {
		t.Fatalf("minted trace header %q does not parse", hdr)
	}

	var line struct {
		Msg      string `json:"msg"`
		Method   string `json:"method"`
		Path     string `json:"path"`
		Status   int    `json:"status"`
		TraceID  string `json:"trace_id"`
		SpanID   string `json:"span_id"`
		StagesNs string `json:"stages_ns"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("access log line does not parse: %v\n%s", err, logBuf.String())
	}
	if line.Msg != "request" || line.Method != "POST" || line.Path != "/v1/predict" || line.Status != 200 {
		t.Errorf("log line fields wrong: %+v", line)
	}
	if line.TraceID != id.String() {
		t.Errorf("log trace_id %q != response header trace %q", line.TraceID, id.String())
	}
	for _, stg := range obs.Stages() {
		if !strings.Contains(line.StagesNs, stg.String()+"=") {
			t.Errorf("stages_ns %q missing stage %s", line.StagesNs, stg)
		}
	}
}

// TestStagesHeaderOptIn: the per-stage breakdown comes back only when
// asked for via X-Rat-Stages, and only on traced requests.
func TestStagesHeaderOptIn(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	hdr := obs.FormatTraceHeader(obs.NewTraceID(), obs.NewSpanID())

	// Traced + opted in: breakdown present with every stage.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(t)))
	req.Header.Set(obs.TraceHeader, hdr)
	req.Header.Set(obs.StagesHeader, "1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	breakdown := rec.Header().Get(obs.StagesHeader)
	if breakdown == "" {
		t.Fatal("opted-in traced request got no X-Rat-Stages response header")
	}
	for _, stg := range obs.Stages() {
		if !strings.Contains(breakdown, stg.String()+"=") {
			t.Errorf("breakdown %q missing stage %s", breakdown, stg)
		}
	}

	// Traced, not opted in: absent.
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(t)))
	req.Header.Set(obs.TraceHeader, hdr)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(obs.StagesHeader); got != "" {
		t.Errorf("non-opted request got X-Rat-Stages %q", got)
	}

	// Opted in but untraced: nothing to report, header absent.
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(t)))
	req.Header.Set(obs.StagesHeader, "1")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(obs.StagesHeader); got != "" {
		t.Errorf("untraced opted request got X-Rat-Stages %q", got)
	}
}

// TestMetricsPromConformance drives traffic, scrapes /metrics with a
// Prometheus Accept header, and runs the exposition through the
// conformance validator. The legacy listing must survive untouched on
// the default path.
func TestMetricsPromConformance(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(t))))
		if rec.Code != http.StatusOK {
			t.Fatalf("predict status %d", rec.Code)
		}
	}
	// One client error so a non-200 code series exists.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader("{")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad predict status %d, want 400", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "text/plain; version=0.0.4")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != telemetry.ContentTypeProm {
		t.Errorf("prom content type = %q", ct)
	}
	exposition := rec.Body.String()
	if err := telemetry.ValidateProm(exposition); err != nil {
		t.Fatalf("/metrics exposition is not conformant: %v\n%s", err, exposition)
	}
	for _, want := range []string{
		`rat_requests_total{code="200",endpoint="predict"} 3`,
		`rat_requests_total{code="400",endpoint="predict"} 1`,
		"# TYPE rat_request_seconds histogram",
		`rat_stage_seconds_bucket{stage="kernel",le="+Inf"}`,
		`rat_inflight{endpoint="predict"} 0`,
		`rat_panics_total 0`,
		"rat_uptime_seconds",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// ?format=prometheus works without the Accept header.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil))
	if err := telemetry.ValidateProm(rec.Body.String()); err != nil {
		t.Errorf("?format=prometheus exposition invalid: %v", err)
	}

	// Default scrape stays the legacy listing.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	legacy := rec.Body.String()
	if !strings.Contains(legacy, "server.admitted.predict") || !strings.Contains(legacy, "server.cache_hits") {
		t.Errorf("legacy metrics listing lost its names:\n%s", legacy)
	}
}

// TestMetricInventory pins the Prometheus families of a default ratd:
// 21 after a predict, a batch and an explore, and the coordinator's
// six counters more after a distributed explore. Each family names one
// quantity once and none is a summary, so a duplicate or a last-run
// series fails here.
func TestMetricInventory(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	post := func(path string, body []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, resp.StatusCode, msg)
		}
	}
	families := func() []string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateProm(string(body)); err != nil {
			t.Fatalf("exposition is not conformant: %v\n%s", err, body)
		}
		var names []string
		for _, line := range strings.Split(string(body), "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, typ, _ := strings.Cut(rest, " ")
				if typ == "summary" {
					t.Errorf("family %s is a summary", name)
				}
				names = append(names, name)
			}
		}
		slices.Sort(names)
		return names
	}

	post("/v1/predict", predictBody(t))
	post("/v1/predict/batch", append(append([]byte("["), predictBody(t)...), ']'))
	explore, err := json.Marshal(distExploreRequest(nil).Explore)
	if err != nil {
		t.Fatal(err)
	}
	post("/v1/explore", explore)
	want := []string{
		"rat_explore_candidates_total", "rat_explore_evaluations_total",
		"rat_explore_feasible_total", "rat_explore_shard_seconds",
		"rat_inflight", "rat_inflight_peak", "rat_panics_total",
		"rat_request_seconds", "rat_requests_total", "rat_stage_seconds",
		"rat_uptime_seconds",
		"server_admitted_batch", "server_admitted_explore", "server_admitted_predict",
		"server_cache_entries", "server_cache_evictions", "server_cache_hits", "server_cache_misses",
		"server_rejected_batch", "server_rejected_explore", "server_rejected_predict",
	}
	if got := families(); !slices.Equal(got, want) {
		t.Errorf("after an explore, %d families:\n%v\nwant %d:\n%v", len(got), got, len(want), want)
	}

	dist, err := json.Marshal(distExploreRequest([]string{ts.URL}))
	if err != nil {
		t.Fatal(err)
	}
	post("/v1/explore/distributed", dist)
	want = append(want,
		"rat_cluster_duplicate_completions_total", "rat_cluster_shards_completed_total",
		"rat_cluster_shards_dispatched_total", "rat_cluster_shards_redispatched_total",
		"rat_cluster_shards_retried_total", "rat_cluster_worker_failures_total")
	slices.Sort(want)
	if got := families(); !slices.Equal(got, want) {
		t.Errorf("after a distributed explore, %d families:\n%v\nwant %d:\n%v", len(got), got, len(want), want)
	}
}

// TestStatusEndpoint checks the /v1/status snapshot after known
// traffic: request counts, cache ratio, stage counts. The requests
// carry a trace header because stage bookkeeping only runs for traced
// requests (untraced ones skip the clock reads entirely).
func TestStatusEndpoint(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	hdr := obs.FormatTraceHeader(obs.NewTraceID(), obs.NewSpanID())
	for i := 0; i < 4; i++ { // 1 miss + 3 hits
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(t)))
		req.Header.Set(obs.TraceHeader, hdr)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("predict status %d", rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status endpoint returned %d", rec.Code)
	}
	var st api.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("status body does not parse: %v", err)
	}
	if st.Requests < 4 {
		t.Errorf("requests = %d, want >= 4", st.Requests)
	}
	if st.UptimeSeconds <= 0 || st.QPS <= 0 {
		t.Errorf("uptime/qps = %g/%g, want positive", st.UptimeSeconds, st.QPS)
	}
	if st.Draining {
		t.Error("fresh server reports draining")
	}
	ep, ok := st.Endpoints["predict"]
	if !ok || ep.Requests != 4 {
		t.Errorf("predict endpoint status = %+v (ok=%v), want 4 requests", ep, ok)
	}
	if st.Cache.Hits != 3 || st.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 3/1", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.HitRatio < 0.74 || st.Cache.HitRatio > 0.76 {
		t.Errorf("hit ratio = %g, want 0.75", st.Cache.HitRatio)
	}
	if st.Stages["admission"].Count != 4 || st.Stages["cache"].Count != 4 {
		t.Errorf("stage counts admission/cache = %d/%d, want 4/4",
			st.Stages["admission"].Count, st.Stages["cache"].Count)
	}
	if st.Stages["kernel"].Count != 1 {
		t.Errorf("kernel stage count = %d, want 1 (one cache miss)", st.Stages["kernel"].Count)
	}
}

// TestTracedAllocOverhead pins the design budget with the runtime's
// own accounting: serving a traced cached-hit request allocates at
// most 2 more objects than the identical untraced request.
func TestTracedAllocOverhead(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	payload := predictBody(t)

	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(payload)))
	if warm.Code != http.StatusOK {
		t.Fatalf("warmup status %d", warm.Code)
	}

	hdr := obs.FormatTraceHeader(obs.NewTraceID(), obs.NewSpanID())
	traceHeader := http.Header{obs.TraceHeader: []string{hdr}}
	run := func(traced bool) float64 {
		return testing.AllocsPerRun(200, func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(payload))
			if traced {
				req.Header = traceHeader
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("status %d", rec.Code)
			}
		})
	}
	untraced := run(false)
	traced := run(true)
	if diff := traced - untraced; diff > 2 {
		t.Errorf("traced path allocates %.1f/op vs %.1f/op untraced (+%.1f, budget +2)",
			traced, untraced, diff)
	}
}

// TestExploreSpansOptIn: span lines appear in the JSONL stream only
// with ?spans=1, and cover the whole candidate index space.
func TestExploreSpansOptIn(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	reqBody := func() *bytes.Reader {
		body, err := json.Marshal(map[string]any{
			"worksheet":  json.RawMessage(predictBody(t)),
			"clocks_mhz": []float64{50, 100, 150, 200},
			"alphas":     []float64{0.5, 0.7, 0.9},
			"top_k":      3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(body)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explore?stream=jsonl&spans=1", reqBody()))
	if rec.Code != http.StatusOK {
		t.Fatalf("explore status %d: %s", rec.Code, rec.Body.String())
	}
	var spanLines, summaryLines int
	var covered uint64
	var summary api.ExploreSummary
	dec := json.NewDecoder(rec.Body)
	for dec.More() {
		var line api.ExploreLine
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		switch line.Kind {
		case "span":
			spanLines++
			if line.Span == nil || line.Span.Hi <= line.Span.Lo {
				t.Fatalf("malformed span line: %+v", line.Span)
			}
			covered += line.Span.Hi - line.Span.Lo
		case "summary":
			summaryLines++
			summary = *line.Summary
		}
	}
	if spanLines == 0 || summaryLines != 1 {
		t.Fatalf("got %d span lines, %d summaries; want >0 and 1", spanLines, summaryLines)
	}
	if covered != summary.Evaluated {
		t.Errorf("spans cover %d candidates, summary says %d evaluated", covered, summary.Evaluated)
	}

	// Without spans=1 the stream must not contain span lines (older
	// consumers reject unknown kinds).
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explore?stream=jsonl", reqBody()))
	if rec.Code != http.StatusOK {
		t.Fatalf("explore status %d", rec.Code)
	}
	dec = json.NewDecoder(rec.Body)
	for dec.More() {
		var line api.ExploreLine
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Kind == "span" {
			t.Fatal("span line emitted without opt-in")
		}
	}
}

// TestStageAccountingPerRoute pins which stages one traced request
// records on each route: the stage clock times admission, cache, kernel
// and encode exactly where the handlers ran them, and batch_wait is
// never recorded. An untraced request records nothing at all.
func TestStageAccountingPerRoute(t *testing.T) {
	ws := predictBody(t)
	batch := append(append([]byte("["), ws...), ']')
	exploreReq, err := json.Marshal(map[string]any{
		"worksheet":  json.RawMessage(ws),
		"clocks_mhz": []float64{50, 100, 150},
		"top_k":      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(New(Config{}).Handler())
	defer worker.Close()
	distReq, err := json.Marshal(distExploreRequest([]string{worker.URL}))
	if err != nil {
		t.Fatal(err)
	}

	adm, cache, kernel, encode := obs.StageAdmission, obs.StageCache, obs.StageKernel, obs.StageEncode
	for _, tc := range []struct {
		name, path string
		body       []byte
		warm       bool // serve it once untraced first: the traced request hits the cache
		want       []obs.Stage
	}{
		{"predict miss", "/v1/predict", ws, false, []obs.Stage{adm, cache, kernel, encode}},
		{"predict hit", "/v1/predict", ws, true, []obs.Stage{adm, cache}},
		{"predict devices", "/v1/predict?devices=4", ws, false, []obs.Stage{adm, cache, kernel, encode}},
		{"batch", "/v1/predict/batch", batch, false, []obs.Stage{adm, kernel, encode}},
		{"explore", "/v1/explore", exploreReq, false, []obs.Stage{adm, kernel, encode}},
		{"explore stream", "/v1/explore?stream=jsonl", exploreReq, false, []obs.Stage{adm, kernel}},
		{"explore distributed", "/v1/explore/distributed", distReq, false, []obs.Stage{adm, kernel, encode}},
	} {
		srv := New(Config{})
		h := srv.Handler()
		serve := func(traced bool) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body))
			if traced {
				req.Header.Set(obs.TraceHeader, obs.FormatTraceHeader(obs.NewTraceID(), obs.NewSpanID()))
				req.Header.Set(obs.StagesHeader, "1")
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body.String())
			}
			return rec
		}
		if tc.warm {
			serve(false)
			for _, st := range obs.Stages() {
				if n := srv.stages[st].Stats().Count; n != 0 {
					t.Errorf("%s: untraced request recorded stage %s %d times", tc.name, st, n)
				}
			}
		}
		rec := serve(true)
		for _, st := range obs.Stages() {
			want := int64(0)
			for _, w := range tc.want {
				if w == st {
					want = 1
				}
			}
			if n := srv.stages[st].Stats().Count; n != want {
				t.Errorf("%s: stage %s recorded %d times, want %d", tc.name, st, n, want)
			}
		}
		if got := rec.Header().Get(obs.StagesHeader); !strings.Contains(got, "batch_wait=0;") {
			t.Errorf("%s: X-Rat-Stages %q does not report batch_wait=0", tc.name, got)
		}
	}
}

// TestStageSecondsExposition pins the shape of the rat_stage_seconds
// family in both /metrics views and the stages schema of /v1/status:
// the five stage labels, each with 24 finite buckets from 2.56e-07 s
// doubling, then +Inf. Sums are not pinned, only counts.
func TestStageSecondsExposition(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody(t)))
	req.Header.Set(obs.TraceHeader, obs.FormatTraceHeader(obs.NewTraceID(), obs.NewSpanID()))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict status %d", rec.Code)
	}
	stages := []string{"admission", "cache", "batch_wait", "kernel", "encode"}
	wantCount := map[string]string{"admission": "1", "cache": "1", "batch_wait": "0", "kernel": "1", "encode": "1"}
	checkBounds := func(view, stage string, les []string) {
		t.Helper()
		if len(les) != 24 {
			t.Errorf("%s: stage %s has %d finite buckets, want 24", view, stage, len(les))
			return
		}
		if les[0] != "2.56e-07" {
			t.Errorf("%s: stage %s first bound %s, want 2.56e-07", view, stage, les[0])
		}
		for i := 1; i < len(les); i++ {
			prev, err1 := strconv.ParseFloat(les[i-1], 64)
			cur, err2 := strconv.ParseFloat(les[i], 64)
			if err1 != nil || err2 != nil || cur != 2*prev {
				t.Errorf("%s: stage %s bound %d is %s, want double of %s", view, stage, i, les[i], les[i-1])
			}
		}
	}

	// Prometheus view.
	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "text/plain; version=0.0.4")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	prom := rec.Body.String()
	if !strings.Contains(prom, "# TYPE rat_stage_seconds histogram\n") {
		t.Error("exposition lacks the rat_stage_seconds histogram family")
	}
	les := map[string][]string{}
	for _, line := range strings.Split(prom, "\n") {
		rest, ok := strings.CutPrefix(line, `rat_stage_seconds_bucket{stage="`)
		if !ok {
			continue
		}
		stage, rest, _ := strings.Cut(rest, `",le="`)
		le, _, _ := strings.Cut(rest, `"}`)
		les[stage] = append(les[stage], le)
	}
	if len(les) != len(stages) {
		t.Errorf("prometheus: stage labels %v, want %v", les, stages)
	}
	for _, stage := range stages {
		got := les[stage]
		if len(got) == 0 || got[len(got)-1] != "+Inf" {
			t.Errorf("prometheus: stage %s buckets %v do not end in +Inf", stage, got)
			continue
		}
		checkBounds("prometheus", stage, got[:len(got)-1])
		for _, want := range []string{
			`rat_stage_seconds_bucket{stage="` + stage + `",le="+Inf"} ` + wantCount[stage] + "\n",
			`rat_stage_seconds_count{stage="` + stage + `"} ` + wantCount[stage] + "\n",
			`rat_stage_seconds_sum{stage="` + stage + `"} `,
		} {
			if !strings.Contains(prom, want) {
				t.Errorf("prometheus: missing %q", want)
			}
		}
	}

	// Text listing.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	seen := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "histo" || !strings.HasPrefix(f[1], "rat_stage_seconds{") {
			continue
		}
		stage := strings.TrimSuffix(strings.TrimPrefix(f[1], `rat_stage_seconds{stage="`), `"}`)
		seen[stage] = true
		if len(f) != 29 || f[2] != "count="+wantCount[stage] || !strings.HasPrefix(f[3], "sum=") ||
			!strings.HasPrefix(f[28], "over=") {
			t.Errorf("text: stage %s line has the wrong shape: %q", stage, line)
			continue
		}
		var bounds []string
		for _, kv := range f[4:28] {
			le, ok := strings.CutPrefix(kv, "le(")
			le, _, ok2 := strings.Cut(le, ")=")
			if !ok || !ok2 {
				t.Errorf("text: stage %s bucket %q is malformed", stage, kv)
			}
			bounds = append(bounds, le)
		}
		checkBounds("text", stage, bounds)
	}
	if len(seen) != len(stages) {
		t.Errorf("text: stage labels %v, want %v", seen, stages)
	}

	// /v1/status schema.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	var status struct {
		Stages map[string]map[string]json.Number `json:"stages"`
	}
	dec := json.NewDecoder(rec.Body)
	dec.UseNumber()
	if err := dec.Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Stages) != len(stages) {
		t.Errorf("status: stages %v, want %v", status.Stages, stages)
	}
	for _, stage := range stages {
		fields := status.Stages[stage]
		if len(fields) != 4 || fields["count"].String() != wantCount[stage] {
			t.Errorf("status: stage %s = %v, want count %s and three quantiles", stage, fields, wantCount[stage])
		}
		for _, q := range []string{"p50_us", "p95_us", "p99_us"} {
			if _, ok := fields[q]; !ok {
				t.Errorf("status: stage %s lacks %s", stage, q)
			}
		}
	}
}
