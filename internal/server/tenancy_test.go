package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/telemetry"
	"github.com/chrec/rat/internal/tenant"
)

// testTenants builds a registry from a JSON literal.
func testTenants(t *testing.T, cfg string) *tenant.Registry {
	t.Helper()
	reg, err := tenant.Parse(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// postPredictAs is postPredict with an API key attached as a bearer
// token.
func postPredictAs(t *testing.T, ts *httptest.Server, key string, p core.Parameters) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict",
		bytes.NewReader(encodeWorksheet(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestTenancyByteIdentity pins that the tenancy layer is invisible in
// the payload: a tenanted server's predict response is byte-identical
// to an untenanted server's response for the same worksheet.
func TestTenancyByteIdentity(t *testing.T) {
	plain := httptest.NewServer(New(Config{}).Handler())
	defer plain.Close()
	tenanted := httptest.NewServer(New(Config{
		Tenants: testTenants(t, `{"tenants": [{"name": "a", "key": "k", "rate_per_sec": 1000}]}`),
	}).Handler())
	defer tenanted.Close()

	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		p := paper.Params(c)
		status, wantBody := postPredict(t, plain, p, "")
		if status != http.StatusOK {
			t.Fatalf("%s: untenanted status %d", c, status)
		}
		status, _, gotBody := postPredictAs(t, tenanted, "k", p)
		if status != http.StatusOK {
			t.Fatalf("%s: tenanted status %d: %s", c, status, gotBody)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s: tenanted response differs from untenanted response\n got %s\nwant %s",
				c, gotBody, wantBody)
		}
	}
}

// TestTenancyAuth pins the identity contract: API endpoints demand a
// configured key (401 + WWW-Authenticate without one, via either
// header form), while the meta endpoints stay open for probes and
// scrapers.
func TestTenancyAuth(t *testing.T) {
	srv := New(Config{
		Tenants: testTenants(t, `{"tenants": [{"name": "a", "key": "secret", "rate_per_sec": 1000}]}`),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	p := paper.PDF1DParams()
	for _, key := range []string{"", "wrong"} {
		status, hdr, _ := postPredictAs(t, ts, key, p)
		if status != http.StatusUnauthorized {
			t.Errorf("key %q: status %d, want 401", key, status)
		}
		if hdr.Get("WWW-Authenticate") == "" {
			t.Errorf("key %q: 401 without WWW-Authenticate", key)
		}
	}

	// The X-Rat-Key form must authenticate too.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict",
		bytes.NewReader(encodeWorksheet(t, p)))
	req.Header.Set("X-Rat-Key", "secret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("X-Rat-Key auth: status %d, want 200", resp.StatusCode)
	}

	// Probes and scrapers need no key.
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/v1/status"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s on a tenanted server: status %d, want 200", path, resp.StatusCode)
		}
	}

	// Auth failures are accounted under the reserved "unknown" label.
	snap := srv.Metrics().Snapshot()
	if got := snap.Counters[`rat_tenant_rejections_total{reason="auth",tenant="unknown"}`]; got != 2 {
		t.Errorf("auth rejections = %d, want 2", got)
	}
}

// TestTenancyQuota429RetryAfter pins the quota contract: a drained
// bucket answers 429 with a Retry-After derived from the refill rate,
// and the advertised wait is honest (a retry at that instant would
// have tokens).
func TestTenancyQuota429RetryAfter(t *testing.T) {
	// 0.2 tokens/s, burst 2: two requests pass, the third waits ~5s.
	srv := New(Config{
		Tenants: testTenants(t, `{"tenants": [{"name": "slow", "key": "k", "rate_per_sec": 0.2, "burst": 2}]}`),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	p := paper.PDF1DParams()
	for i := 0; i < 2; i++ {
		if status, _, body := postPredictAs(t, ts, "k", p); status != http.StatusOK {
			t.Fatalf("in-burst request %d: status %d: %s", i, status, body)
		}
	}
	status, hdr, _ := postPredictAs(t, ts, "k", p)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", status)
	}
	retry, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not delta-seconds", hdr.Get("Retry-After"))
	}
	// One token at 0.2/s refills in 5s; ceil can land on 5 or 6
	// depending on how much wall time the two granted requests burned.
	if retry < 4 || retry > 6 {
		t.Errorf("Retry-After = %ds, want ~5s (refill-derived, not a fixed 1)", retry)
	}

	snap := srv.Metrics().Snapshot()
	if got := snap.Counters[`rat_tenant_rejections_total{reason="quota",tenant="slow"}`]; got != 1 {
		t.Errorf("quota rejections = %d, want 1", got)
	}
	if got := snap.Counters[`rat_tenant_requests_total{tenant="slow"}`]; got != 2 {
		t.Errorf("tenant requests = %d, want 2", got)
	}
}

// TestTenancyBatchTopUp pins the per-worksheet batch charge: a batch
// is charged one token per worksheet, so a batch larger than the
// remaining budget is refused with a refill-derived Retry-After even
// though the first token was available.
func TestTenancyBatchTopUp(t *testing.T) {
	srv := New(Config{
		Tenants: testTenants(t, `{"tenants": [{"name": "a", "key": "k", "rate_per_sec": 1, "burst": 4}]}`),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	docs := make([]json.RawMessage, 8) // needs 8 tokens; only 4 exist
	for i := range docs {
		docs[i] = encodeWorksheet(t, paper.PDF1DParams())
	}
	body, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict/batch", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer k")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("8-worksheet batch against a 4-token budget: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("batch quota refusal without Retry-After")
	}
}

// TestTenancyConcurrencyCap pins max_inflight: with every slot held,
// a request is refused 429 with reason "concurrency", and slots freed
// later admit again.
func TestTenancyConcurrencyCap(t *testing.T) {
	reg := testTenants(t, `{"tenants": [{"name": "a", "key": "k", "rate_per_sec": 1000, "max_inflight": 1}]}`)
	srv := New(Config{Tenants: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	member, ok := reg.Lookup("k")
	if !ok {
		t.Fatal("test key missing")
	}
	if !member.AcquireSlot() { // hold the only slot
		t.Fatal("could not hold the slot")
	}
	status, hdr, _ := postPredictAs(t, ts, "k", paper.PDF1DParams())
	if status != http.StatusTooManyRequests {
		t.Fatalf("status with slots exhausted = %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("concurrency refusal without Retry-After")
	}
	member.ReleaseSlot()
	if status, _, body := postPredictAs(t, ts, "k", paper.PDF1DParams()); status != http.StatusOK {
		t.Fatalf("status after slot release = %d, want 200: %s", status, body)
	}
	snap := srv.Metrics().Snapshot()
	if got := snap.Counters[`rat_tenant_rejections_total{reason="concurrency",tenant="a"}`]; got != 1 {
		t.Errorf("concurrency rejections = %d, want 1", got)
	}
}

// TestTenancyNoisyNeighborIsolation is the in-process isolation
// proof: a hostile tenant running far over its quota is shed with
// 429s while the compliant tenant sees zero unexpected rejections and
// a bounded p99 — per-tenant buckets mean abuse cannot spill across
// the boundary.
func TestTenancyNoisyNeighborIsolation(t *testing.T) {
	srv := New(Config{
		Tenants: testTenants(t, `{"tenants": [
			{"name": "compliant", "key": "ck", "rate_per_sec": 1000, "burst": 1000},
			{"name": "hostile", "key": "hk", "rate_per_sec": 2, "burst": 2}
		]}`),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	p := paper.PDF1DParams()
	const compliantN = 60
	const hostileN = 200 // ~100x the hostile burst

	var wg sync.WaitGroup
	var mu sync.Mutex
	var compliant429, hostile429, hostileOK int
	var compliantLat []time.Duration
	startAt := time.Now()
	sendLoop := func(key string, n int, record bool) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			status, _, body := postPredictAs(t, ts, key, p)
			lat := time.Since(t0)
			mu.Lock()
			switch {
			case status == http.StatusTooManyRequests && record:
				compliant429++
			case status == http.StatusTooManyRequests:
				hostile429++
			case status == http.StatusOK && !record:
				hostileOK++
			case status != http.StatusOK:
				mu.Unlock()
				t.Errorf("%s: unexpected status %d: %s", key, status, body)
				return
			}
			if record {
				compliantLat = append(compliantLat, lat)
			}
			mu.Unlock()
		}
	}
	wg.Add(3)
	go sendLoop("ck", compliantN, true)
	go sendLoop("hk", hostileN, false)
	go sendLoop("hk", hostileN, false)
	wg.Wait()

	if compliant429 != 0 {
		t.Errorf("compliant tenant saw %d unexpected 429s; isolation failed", compliant429)
	}
	if hostile429 == 0 {
		t.Error("hostile tenant at ~100x quota was never shed")
	}
	// The hostile tenant gets its burst plus refill for the wall time
	// the loops ran — nothing more.
	if allowed := 2 + int(time.Since(startAt).Seconds()*2) + 3; hostileOK > allowed {
		t.Errorf("hostile tenant got %d requests through (burst 2, rate 2/s over %v; allowed ~%d)",
			hostileOK, time.Since(startAt).Round(time.Millisecond), allowed)
	}
	// p99 bound: generous (CI machines stall), but a tenant starved by
	// its neighbor would blow far past it.
	if n := len(compliantLat); n > 0 {
		idx := n - 1 - n/100
		if idx < 0 {
			idx = 0
		}
		sortDurations(compliantLat)
		if p99 := compliantLat[idx]; p99 > 2*time.Second {
			t.Errorf("compliant p99 = %v under hostile load; want < 2s", p99)
		}
	}
}

// sortDurations is an insertion sort; the slices here are tiny and it
// keeps the test free of an extra import.
func sortDurations(d []time.Duration) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

// TestPanicReleasesInflightAndTenantSlot is the panic-path audit: a
// handler that dies mid-request must still answer a well-formed 500,
// count the panic and release the tenant's concurrency slot — the
// recovery path runs the same deferred bookkeeping as a clean return.
func TestPanicReleasesInflightAndTenantSlot(t *testing.T) {
	reg := testTenants(t, `{"tenants": [{"name": "a", "key": "k", "rate_per_sec": 1000, "max_inflight": 1}]}`)
	srv := New(Config{Tenants: reg})

	// Wrap a deliberately dying handler in the server's own middleware:
	// the exact recovery path production requests travel.
	dying := srv.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	ts := httptest.NewServer(dying)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader("{}"))
	req.Header.Set("Authorization", "Bearer k")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500: %s", resp.StatusCode, body)
	}

	if got := srv.Metrics().Snapshot().Counters["rat_panics_total"]; got != 1 {
		t.Errorf("rat_panics_total = %d, want 1", got)
	}
	member, _ := reg.Lookup("k")
	if got := member.Inflight(); got != 0 {
		t.Errorf("tenant inflight after panic = %d, want 0: the tenant slot leaked", got)
	}
	// The freed slot must be reusable immediately.
	if !member.AcquireSlot() {
		t.Error("tenant slot not reusable after panic recovery")
	}
	member.ReleaseSlot()
}

// TestStatusReportsTenants pins the /v1/status tenants section: it
// appears on a tenanted server with per-tenant counts, and only there.
func TestStatusReportsTenants(t *testing.T) {
	srv := New(Config{
		Tenants: testTenants(t, `{"tenants": [
			{"name": "a", "key": "ka", "rate_per_sec": 1000},
			{"name": "b", "key": "kb", "rate_per_sec": 1}
		]}`),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postPredictAs(t, ts, "ka", paper.PDF1DParams())
	postPredictAs(t, ts, "kb", paper.PDF1DParams())
	postPredictAs(t, ts, "kb", paper.PDF1DParams()) // over kb's burst of 1

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Tenants) != 2 {
		t.Fatalf("status tenants = %v, want entries for a and b", st.Tenants)
	}
	if st.Tenants["a"].Requests != 1 {
		t.Errorf("tenant a requests = %d, want 1", st.Tenants["a"].Requests)
	}
	if st.Tenants["b"].RejectedQuota != 1 {
		t.Errorf("tenant b rejected_quota = %d, want 1", st.Tenants["b"].RejectedQuota)
	}

	// An untenanted server must not grow a tenants section.
	plain := httptest.NewServer(New(Config{}).Handler())
	defer plain.Close()
	resp2, err := http.Get(plain.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	if bytes.Contains(raw, []byte(`"tenants"`)) {
		t.Error("untenanted /v1/status contains a tenants section")
	}
}

// TestTenantMetricsValidProm pins that every tenant-labelled metric
// survives the Prometheus exposition round trip: bounded, well-formed
// label sets or nothing.
func TestTenantMetricsValidProm(t *testing.T) {
	srv := New(Config{
		Tenants: testTenants(t, `{"tenants": [{"name": "team-7", "key": "k", "rate_per_sec": 1, "burst": 1}]}`),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postPredictAs(t, ts, "k", paper.PDF1DParams())
	postPredictAs(t, ts, "k", paper.PDF1DParams()) // quota rejection
	postPredictAs(t, ts, "bad", paper.PDF1DParams())

	var buf bytes.Buffer
	if err := telemetry.WriteProm(&buf, srv.Metrics().Snapshot()); err != nil {
		t.Fatalf("tenant metrics break the Prometheus exposition: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`rat_tenant_requests_total{tenant="team-7"}`,
		`rat_tenant_rejections_total{reason="quota",tenant="team-7"}`,
		`rat_tenant_rejections_total{reason="auth",tenant="unknown"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if err := telemetry.ValidateProm(out); err != nil {
		t.Errorf("tenant exposition fails ValidateProm: %v", err)
	}
}

// TestRetryAfterSeconds pins the header arithmetic: ceil to whole
// seconds, floor 1.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{5 * time.Second, 5},
		{5*time.Second + time.Nanosecond, 6},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}
