package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	. "github.com/chrec/rat/client"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/obs"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/server"
	"github.com/chrec/rat/internal/tenant"
	"github.com/chrec/rat/internal/worksheet"
)

func newTestPair(t *testing.T, cfg server.Config, opts ...Option) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return New(ts.URL, opts...), ts
}

// TestClientPredictBitForBit: the typed client returns exactly what
// the local kernel computes, for all three paper case studies.
func TestClientPredictBitForBit(t *testing.T) {
	c, _ := newTestPair(t, server.Config{})
	ctx := context.Background()
	for _, cs := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		p := paper.Params(cs)
		want, err := core.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Predict(ctx, p)
		if err != nil {
			t.Fatalf("%s: %v", cs, err)
		}
		if got != want {
			t.Errorf("%s: client prediction differs from core.Predict", cs)
		}
	}
}

// TestClientPredictMultiBitForBit covers both topologies.
func TestClientPredictMultiBitForBit(t *testing.T) {
	c, _ := newTestPair(t, server.Config{})
	ctx := context.Background()
	p := paper.MDParams()
	for _, cfg := range []core.MultiConfig{
		{Devices: 2, Topology: core.SharedChannel},
		{Devices: 4, Topology: core.IndependentChannels},
	} {
		want, err := core.PredictMulti(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.PredictMulti(ctx, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%+v: client multi-prediction differs from core.PredictMulti", cfg)
		}
	}
}

// TestClientPredictBatchBitForBit: element i of the batch equals the
// scalar prediction of worksheet i.
func TestClientPredictBatchBitForBit(t *testing.T) {
	c, _ := newTestPair(t, server.Config{})
	ps := []core.Parameters{paper.PDF1DParams(), paper.PDF2DParams(), paper.MDParams()}
	got, err := c.PredictBatch(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("got %d predictions for %d worksheets", len(got), len(ps))
	}
	for i, p := range ps {
		want, err := core.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("batch element %d differs from core.Predict", i)
		}
	}
}

// TestClientExplore cross-checks a served exploration against a local
// explore.Run.
func TestClientExplore(t *testing.T) {
	c, _ := newTestPair(t, server.Config{})
	req := ExploreRequest{
		Worksheet: worksheet.DocFromParams(paper.PDF1DParams()),
		ClocksMHz: []float64{75, 100, 150},
		TopK:      2,
	}
	got, err := c.Explore(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := req.Grid()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := req.Options(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := explore.Run(grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != want.Evaluated || len(got.Top) != len(want.Top) {
		t.Errorf("explore evaluated/top = %d/%d, want %d/%d",
			got.Evaluated, len(got.Top), want.Evaluated, len(want.Top))
	}
	for i := range want.Top {
		if got.Top[i].Speedup != want.Top[i].Speedup {
			t.Errorf("top[%d].Speedup = %v, want %v", i, got.Top[i].Speedup, want.Top[i].Speedup)
		}
	}
}

// TestClientOperationalEndpoints: Healthz, Ready, Metrics.
func TestClientOperationalEndpoints(t *testing.T) {
	c, _ := newTestPair(t, server.Config{})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Errorf("Healthz: %v", err)
	}
	ready, err := c.Ready(ctx)
	if err != nil || !ready {
		t.Errorf("Ready = %v, %v; want true, nil", ready, err)
	}
	if _, err := c.Predict(ctx, paper.PDF1DParams()); err != nil {
		t.Fatal(err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "rat_requests_total") {
		t.Errorf("Metrics output lacks rat_requests_total:\n%s", metrics)
	}
}

// TestClientRetriesTemporaryErrors: 503s are retried within budget
// and the call eventually succeeds.
func TestClientRetriesTemporaryErrors(t *testing.T) {
	real := server.New(server.Config{}).Handler()
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	c := New(flaky.URL,
		WithRetryPolicy(RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond, Growth: 2, Jitter: 0.2}),
		WithJitterSourceForTest(func() float64 { return 0.5 }))
	p := paper.PDF1DParams()
	want, err := core.Predict(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Predict(context.Background(), p)
	if err != nil {
		t.Fatalf("Predict through flaky server: %v", err)
	}
	if got != want {
		t.Error("retried prediction differs from core.Predict")
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 3 (two 503s + success)", n)
	}
}

// TestClientDoesNotRetryCallerErrors: a 400 is terminal; the client
// must not burn retries on it.
func TestClientDoesNotRetryCallerErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad worksheet"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxRetries: 5, Backoff: time.Millisecond}))
	_, err := c.Predict(context.Background(), paper.PDF1DParams())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want *APIError with 400", err)
	}
	if apiErr.Message != "bad worksheet" {
		t.Errorf("Message = %q, want the server's error string", apiErr.Message)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d calls for a 400, want 1", n)
	}
}

// TestClientRetryBudgetExhausted: a persistent 503 fails after
// MaxRetries+1 attempts with the attempt count in the error.
func TestClientRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"still down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond}))
	_, err := c.Predict(context.Background(), paper.PDF1DParams())
	if err == nil {
		t.Fatal("Predict succeeded against a dead server")
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 3 (1 + 2 retries)", n)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error does not report the attempt count: %v", err)
	}
}

// TestClientContextCancelStopsRetries: a cancelled context ends the
// retry loop promptly.
func TestClientContextCancelStopsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxRetries: 100, Backoff: time.Hour}))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Predict(ctx, paper.PDF1DParams())
	if err == nil {
		t.Fatal("Predict succeeded unexpectedly")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled retry loop ran %v", elapsed)
	}
}

// TestBackoffPolicyShape pins the exponential schedule and the cap.
func TestBackoffPolicyShape(t *testing.T) {
	p := RetryPolicy{Backoff: 100 * time.Millisecond, Growth: 2, MaxBackoff: 500 * time.Millisecond}
	noJitter := func() float64 { return 0.5 } // Jitter==0 ignores the source anyway
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{4, 500 * time.Millisecond}, // capped
		{9, 500 * time.Millisecond},
	} {
		if got := p.BackoffForTest(tc.attempt, noJitter); got != tc.want {
			t.Errorf("backoffFor(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
	jittered := RetryPolicy{Backoff: 100 * time.Millisecond, Growth: 2, Jitter: 0.2}
	lo := jittered.BackoffForTest(1, func() float64 { return 0 })
	hi := jittered.BackoffForTest(1, func() float64 { return 1 })
	if lo != 80*time.Millisecond || hi != 120*time.Millisecond {
		t.Errorf("jitter bounds = [%v, %v], want [80ms, 120ms]", lo, hi)
	}
}

// TestClientReadyDrain: Ready returns (false, nil) on 503 draining.
func TestClientReadyDrain(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
	}))
	defer ts.Close()
	// Readiness is a probe, not work: retrying a draining server would
	// just slow the probe down, so keep retries off here.
	c := New(ts.URL, WithRetryPolicy(RetryPolicy{}))
	ready, err := c.Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ready {
		t.Error("Ready = true for a draining server")
	}
}

// TestClientSendsTrace: every attempt of one logical request carries
// the same trace ID under a fresh span ID.
func TestClientSendsTrace(t *testing.T) {
	var mu sync.Mutex
	var traces, spans []string
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, span, ok := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		if !ok {
			t.Errorf("attempt carried unparseable trace header %q", r.Header.Get(obs.TraceHeader))
		}
		mu.Lock()
		traces = append(traces, id.String())
		spans = append(spans, span.String())
		mu.Unlock()
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		server.New(server.Config{}).Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond}))
	if _, err := c.Predict(context.Background(), paper.PDF1DParams()); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("saw %d attempts, want 3", len(traces))
	}
	if traces[0] != traces[1] || traces[1] != traces[2] {
		t.Errorf("trace ID changed across retries: %v", traces)
	}
	if spans[0] == spans[1] || spans[1] == spans[2] {
		t.Errorf("span IDs repeat across attempts: %v", spans)
	}
}

// TestAPIErrorTraceID: a failed request surfaces its trace ID — the
// server's echo when present, the client's own otherwise — and quotes
// it in the error string.
func TestAPIErrorTraceID(t *testing.T) {
	// A real ratd echoes the header; a 404 from it is terminal.
	c, _ := newTestPair(t, server.Config{})
	_, err := c.GetForTest(context.Background(), "/v1/nope")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if id, _, ok := obs.ParseTraceHeader(apiErr.TraceID + "-00000000"); !ok || id.IsZero() {
		t.Fatalf("APIError.TraceID %q is not a trace ID", apiErr.TraceID)
	}
	if !strings.Contains(apiErr.Error(), apiErr.TraceID) {
		t.Errorf("error string %q does not quote the trace ID", apiErr.Error())
	}

	// A server that never echoes: the client still knows what it sent.
	var sent string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		sent = id.String()
		http.Error(w, `{"error":"nope"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	_, err = New(ts.URL).Predict(context.Background(), paper.PDF1DParams())
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.TraceID != sent {
		t.Errorf("APIError.TraceID = %q, want the sent ID %q", apiErr.TraceID, sent)
	}
}

// TestClientRetryLogging: WithLogger gets one structured warn line per
// retry, carrying the trace ID and attempt number.
func TestClientRetryLogging(t *testing.T) {
	var calls atomic.Int64
	real := server.New(server.Config{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var logBuf bytes.Buffer
	c := New(ts.URL,
		WithRetryPolicy(RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond}),
		WithLogger(slog.New(slog.NewJSONHandler(&logBuf, nil))))
	if _, err := c.Predict(context.Background(), paper.PDF1DParams()); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d retry log lines, want 2:\n%s", len(lines), logBuf.String())
	}
	var prevTrace string
	for i, ln := range lines {
		var entry struct {
			Msg     string `json:"msg"`
			Attempt int    `json:"attempt"`
			TraceID string `json:"trace_id"`
			Err     string `json:"err"`
		}
		if err := json.Unmarshal([]byte(ln), &entry); err != nil {
			t.Fatalf("retry log line %d does not parse: %v", i, err)
		}
		if entry.Msg != "retry" || entry.Attempt != i+1 {
			t.Errorf("line %d: msg=%q attempt=%d, want retry/%d", i, entry.Msg, entry.Attempt, i+1)
		}
		if entry.TraceID == "" || (prevTrace != "" && entry.TraceID != prevTrace) {
			t.Errorf("line %d: trace_id %q (prev %q), want one stable non-empty ID", i, entry.TraceID, prevTrace)
		}
		prevTrace = entry.TraceID
		if !strings.Contains(entry.Err, "warming up") {
			t.Errorf("line %d: err %q does not carry the server error", i, entry.Err)
		}
	}
}

// TestClientStatus: the typed Status call returns the live snapshot.
func TestClientStatus(t *testing.T) {
	c, _ := newTestPair(t, server.Config{})
	ctx := context.Background()
	if _, err := c.Predict(ctx, paper.PDF1DParams()); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests < 1 || st.UptimeSeconds <= 0 {
		t.Errorf("status = %+v, want at least one counted request and positive uptime", st)
	}
	if _, ok := st.Endpoints["predict"]; !ok {
		t.Errorf("status endpoints missing predict: %+v", st.Endpoints)
	}
	if st.Stages["admission"].Count < 1 {
		t.Errorf("status stages missing admission observations: %+v", st.Stages)
	}
}

// syncLogBuffer lets the server's log goroutines and the test share a
// buffer safely.
type syncLogBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncLogBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncLogBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceEndToEnd follows one trace ID through every surface the
// observability layer promises: the client's APIError, ratd's
// structured access log line, and that line's per-stage span record.
func TestTraceEndToEnd(t *testing.T) {
	var logBuf syncLogBuffer
	c, _ := newTestPair(t, server.Config{
		AccessLogger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})

	_, err := c.GetForTest(context.Background(), "/v1/predict/nope")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.TraceID == "" {
		t.Fatalf("err = %v, want *APIError with a trace ID", err)
	}

	found := false
	for _, ln := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var event struct {
			Path     string `json:"path"`
			TraceID  string `json:"trace_id"`
			SpanID   string `json:"span_id"`
			StagesNs string `json:"stages_ns"`
		}
		if err := json.Unmarshal([]byte(ln), &event); err != nil {
			t.Fatalf("access log line does not parse: %v\n%s", err, ln)
		}
		if event.TraceID != apiErr.TraceID {
			continue
		}
		found = true
		if event.Path != "/v1/predict/nope" {
			t.Errorf("log line path %q, want the failed request's path", event.Path)
		}
		if event.SpanID == "" {
			t.Error("log line has no span_id")
		}
		for _, stage := range []string{"admission=", "cache=", "batch_wait=", "kernel=", "encode="} {
			if !strings.Contains(event.StagesNs, stage) {
				t.Errorf("span record %q lacks %s", event.StagesNs, stage)
			}
		}
	}
	if !found {
		t.Errorf("no access log line carries the APIError trace ID %s:\n%s", apiErr.TraceID, logBuf.String())
	}
}

// TestParseRetryAfter pins both RFC 9110 forms of the header:
// delta-seconds and HTTP-date, with malformed values ignored.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"5", 5 * time.Second, true},
		{"0", 0, true},
		{"-3", 0, false},
		{"soon", 0, false},
		{now.Add(30 * time.Second).Format(http.TimeFormat), 30 * time.Second, true},
		// A date already past means "retry now", never a negative wait.
		{now.Add(-time.Minute).Format(http.TimeFormat), 0, true},
	}
	for _, tc := range cases {
		got, ok := ParseRetryAfterForTest(tc.in, now)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseRetryAfterForTest(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestClientHonorsHTTPDateRetryAfter: a 429 carrying an HTTP-date
// Retry-After makes the client wait until that instant before its
// retry — the same contract as delta-seconds.
func TestClientHonorsHTTPDateRetryAfter(t *testing.T) {
	real := server.New(server.Config{}).Handler()
	var calls atomic.Int64
	var firstAt, secondAt time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			firstAt = time.Now()
			// Two seconds out: HTTP-dates truncate to whole seconds, so
			// a one-second offset can land arbitrarily close to "now" —
			// two guarantees the honored wait is at least ~1s.
			w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			http.Error(w, `{"error":"quota"}`, http.StatusTooManyRequests)
		default:
			secondAt = time.Now()
			real.ServeHTTP(w, r)
		}
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond}))
	if _, err := c.Predict(context.Background(), paper.PDF1DParams()); err != nil {
		t.Fatalf("Predict through a 429-then-OK server: %v", err)
	}
	// HTTP-date resolution is one second; the honored wait lands
	// somewhere inside (1s, 2s] rather than at the 1ms backoff.
	if wait := secondAt.Sub(firstAt); wait < 900*time.Millisecond || wait > 5*time.Second {
		t.Errorf("retry waited %v; an HTTP-date two seconds out should be honored (not the 1ms backoff)", wait)
	}
}

// TestClientCapsRetryWaitAtDeadline: when the server's Retry-After
// cannot fit inside the request deadline, the client fails fast with
// the underlying 429 instead of sleeping into a guaranteed timeout.
func TestClientCapsRetryWaitAtDeadline(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "30")
		http.Error(w, `{"error":"over quota"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxRetries: 5, Backoff: time.Millisecond}))
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Predict(ctx, paper.PDF1DParams())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Predict succeeded against a permanent 429")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Errorf("err = %v; want it to wrap the 429 APIError", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("client took %v; a 30s Retry-After against a 200ms deadline must fail fast", elapsed)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d calls; the retry could never fit the deadline", n)
	}
}

// TestClientAPIKey: WithAPIKey authenticates against a multi-tenant
// server, and a keyless client is refused with 401.
func TestClientAPIKey(t *testing.T) {
	reg, err := tenant.Parse(strings.NewReader(
		`{"tenants": [{"name": "a", "key": "sekrit", "rate_per_sec": 1000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Tenants: reg}
	keyed, ts := newTestPair(t, cfg, WithAPIKey("sekrit"), WithRetryPolicy(RetryPolicy{}))
	p := paper.PDF1DParams()
	want, err := core.Predict(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := keyed.Predict(context.Background(), p)
	if err != nil {
		t.Fatalf("keyed Predict: %v", err)
	}
	if got != want {
		t.Error("tenanted prediction differs from core.Predict")
	}

	keyless := New(ts.URL, WithRetryPolicy(RetryPolicy{}))
	_, err = keyless.Predict(context.Background(), p)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Errorf("keyless Predict err = %v, want a 401 APIError", err)
	}
}

// TestClientWireBinaryBitForBit runs the three prediction calls over
// the binary wire format and compares every result to the local
// kernel with != — the format changes the bytes on the wire, never
// the prediction.
func TestClientWireBinaryBitForBit(t *testing.T) {
	c, _ := newTestPair(t, server.Config{}, WithWireFormat(WireBinary))
	ctx := context.Background()

	for _, cs := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		p := paper.Params(cs)
		want, err := core.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Predict(ctx, p)
		if err != nil {
			t.Fatalf("%s: %v", cs, err)
		}
		if got != want {
			t.Errorf("%s: binary-wire prediction differs from core.Predict", cs)
		}
	}

	mcfg := core.MultiConfig{Devices: 4, Topology: core.IndependentChannels}
	wantM, err := core.PredictMulti(paper.MDParams(), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	gotM, err := c.PredictMulti(ctx, paper.MDParams(), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotM != wantM {
		t.Error("binary-wire multi prediction differs from core.PredictMulti")
	}

	ps := []core.Parameters{paper.PDF1DParams(), paper.PDF2DParams(), paper.MDParams()}
	batch, err := c.PredictBatch(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		want, err := core.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != want {
			t.Errorf("binary-wire batch element %d differs from core.Predict", i)
		}
	}
}

// TestClientWireBinaryErrors: error responses stay JSON even under
// the binary format, so APIError carries the server's message.
func TestClientWireBinaryErrors(t *testing.T) {
	c, _ := newTestPair(t, server.Config{}, WithWireFormat(WireBinary))
	p := paper.PDF1DParams()
	p.Dataset.ElementsIn = -1
	_, err := c.Predict(context.Background(), p)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("invalid worksheet over binary wire returned %v, want *APIError", err)
	}
	if apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", apiErr.StatusCode)
	}
	if apiErr.Message == "" {
		t.Error("APIError lost the server's JSON error message")
	}
}
