package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/obs"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/tenant"
	"github.com/chrec/rat/internal/wire"
	"github.com/chrec/rat/internal/worksheet"
)

// benchBody is a resettable io.ReadCloser over a fixed payload, so the
// measured loop replays the same request body without allocating a new
// reader per iteration.
type benchBody struct{ r bytes.Reader }

func (b *benchBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *benchBody) Close() error               { return nil }

// benchWriter is a minimal ResponseWriter whose header map and body
// buffer persist across iterations. With the fixture reused, the
// benchmarks below measure the server's own allocations, not the test
// harness's.
type benchWriter struct {
	h    http.Header
	buf  []byte
	code int // 0 until WriteHeader; success paths never call it
}

func (w *benchWriter) Header() http.Header { return w.h }
func (w *benchWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}
func (w *benchWriter) WriteHeader(code int) { w.code = code }

// predictHarness is the reusable fixture: one request object, one
// resettable body, one writer. run replays the request once.
type predictHarness struct {
	h    http.Handler
	req  *http.Request
	body *benchBody
	w    *benchWriter
	data []byte
}

func newPredictHarness(h http.Handler, payload []byte, hdr http.Header) *predictHarness {
	ph := &predictHarness{
		h:    h,
		req:  httptest.NewRequest(http.MethodPost, "/v1/predict", nil),
		body: &benchBody{},
		w:    &benchWriter{h: make(http.Header, 4), buf: make([]byte, 0, 1024)},
		data: payload,
	}
	if hdr != nil {
		ph.req.Header = hdr
	}
	ph.req.Body = ph.body
	ph.req.ContentLength = int64(len(payload))
	return ph
}

func (ph *predictHarness) run(b *testing.B) {
	ph.body.r.Reset(ph.data)
	ph.w.buf = ph.w.buf[:0]
	ph.w.code = 0
	ph.h.ServeHTTP(ph.w, ph.req)
	if ph.w.code != 0 {
		b.Fatalf("status %d: %s", ph.w.code, ph.w.buf)
	}
}

// warm replays the request a few times outside the timer so pooled
// buffers reach their steady-state sizes.
func (ph *predictHarness) warm(b *testing.B) {
	for i := 0; i < 16; i++ {
		ph.run(b)
	}
}

func predictPayload(b *testing.B) []byte {
	var body bytes.Buffer
	if err := worksheet.EncodeJSON(&body, paper.PDF1DParams()); err != nil {
		b.Fatal(err)
	}
	return body.Bytes()
}

// BenchmarkServerPredictUncached disables the cache so every iteration
// runs the whole pipeline: wire decode, kernel, wire encode. Response
// rendering is bit-for-bit encoding/json, so much of this time is
// shortest-form float formatting (appendFloat) — the binary benchmark
// below shows the same path without it.
func BenchmarkServerPredictUncached(b *testing.B) {
	srv := New(Config{CacheSize: -1})
	ph := newPredictHarness(srv.Handler(), predictPayload(b), nil)
	ph.warm(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph.run(b)
	}
}

// BenchmarkServerPredictCachedHit measures the steady-state
// in-process request path of POST /v1/predict under the default
// configuration — middleware, admission, request-key cache hit, write —
// the per-request overhead ratd adds in production once traffic
// repeats. The response bytes come straight out of the LRU and the
// whole request performs zero allocations. Gated in BENCH_5.json on
// ns/op, allocs/op AND bytes/op (allocs/op pinned at exactly 0).
func BenchmarkServerPredictCachedHit(b *testing.B) {
	srv := New(Config{})
	ph := newPredictHarness(srv.Handler(), predictPayload(b), nil)
	ph.warm(b) // first run fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph.run(b)
	}
}

// BenchmarkServerPredictBinary is BenchmarkServerPredictUncached with
// both sides of the exchange in the binary wire format (Content-Type and
// Accept: application/x-rat-bin): fixed-width frames instead of JSON
// text in either direction.
func BenchmarkServerPredictBinary(b *testing.B) {
	srv := New(Config{CacheSize: -1})
	payload := wire.AppendBinaryWorksheet(nil, paper.PDF1DParams())
	hdr := http.Header{
		"Content-Type": []string{wire.ContentTypeBinary},
		"Accept":       []string{wire.ContentTypeBinary},
	}
	ph := newPredictHarness(srv.Handler(), payload, hdr)
	ph.warm(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph.run(b)
	}
}

// BenchmarkServerPredictTraced is BenchmarkServerPredictCachedHit with
// an X-Rat-Trace header on every request: the same cached-hit path
// plus trace parse, per-stage clocks and the header echo. The design
// budget is at most 2 allocs/op over the untraced benchmark; the
// request header itself is attached as a pre-built map so the
// comparison isolates the server side. Gated in BENCH_5.json.
func BenchmarkServerPredictTraced(b *testing.B) {
	srv := New(Config{})
	hdr := obs.FormatTraceHeader(obs.NewTraceID(), obs.NewSpanID())
	ph := newPredictHarness(srv.Handler(), predictPayload(b),
		http.Header{obs.TraceHeader: []string{hdr}})
	ph.warm(b)
	if got := ph.w.h.Get(obs.TraceHeader); got != hdr {
		b.Fatalf("trace header did not round-trip: got %q want %q", got, hdr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph.run(b)
	}
}

// BenchmarkServerPredictTenanted is BenchmarkServerPredictCachedHit
// through the tenancy layer: key lookup, token-bucket charge,
// concurrency slot and per-tenant accounting on every request. The
// tenant member rides on the pooled statusWriter, so the budget over
// the untenanted path is the bucket/slot bookkeeping, not
// allocations. Gated in BENCH_5.json.
func BenchmarkServerPredictTenanted(b *testing.B) {
	reg, err := tenant.Parse(strings.NewReader(
		`{"tenants": [{"name": "bench", "key": "bk", "rate_per_sec": 1e12, "burst": 1e12}]}`))
	if err != nil {
		b.Fatal(err)
	}
	srv := New(Config{Tenants: reg})
	ph := newPredictHarness(srv.Handler(), predictPayload(b),
		http.Header{"Authorization": []string{"Bearer bk"}})
	ph.warm(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph.run(b)
	}
}

// explorePayload is an explore-grid-shaped /v1/explore body: 16 clocks
// x 16 throughput_procs rows x 4 alphas x 4 block sizes x 4 device
// counts x 2 bufferings = 32,768 candidates around the 1-D PDF
// worksheet, top 10 by the objective above a speedup floor.
func explorePayload(b *testing.B, objective string, frontier bool) []byte {
	base := paper.PDF1DParams()
	req := api.ExploreRequest{
		Objective:  objective,
		Worksheet:  worksheet.DocFromParams(base),
		Alphas:     []float64{0.2, 0.4, 0.6, 0.8},
		BlockSizes: []int64{base.Dataset.ElementsIn / 2, base.Dataset.ElementsIn, 2 * base.Dataset.ElementsIn, 4 * base.Dataset.ElementsIn},
		Devices:    []int{1, 2, 4, 8},
		Topology:   "independent",
		TopK:       10,
		MinSpeedup: math.Round(core.MustPredict(base).SpeedupSingle*100) / 100,
		Frontier:   frontier,
	}
	for i := 0; i < 16; i++ {
		req.ClocksMHz = append(req.ClocksMHz, float64(50+15*i))
		req.ThroughputProcs = append(req.ThroughputProcs, math.Round(base.Comp.ThroughputProc*math.Exp2(float64(i-8)/4)*10)/10)
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkServerExplore measures one default-config POST /v1/explore
// in process — admission, body read, wire decode, one compile, the
// engine, wire encode, write — on an explore-grid-shaped grid, top-K
// only and with the frontier, under each objective. Not gated.
func BenchmarkServerExplore(b *testing.B) {
	for _, tc := range []struct {
		name     string
		frontier bool
	}{{"TopK", false}, {"Frontier", true}} {
		for _, obj := range []string{"max-speedup", "min-trc", "min-cost"} {
			b.Run(tc.name+"/"+obj, func(b *testing.B) {
				ph := newPredictHarness(New(Config{}).Handler(), explorePayload(b, obj, tc.frontier), nil)
				ph.req.URL.Path, ph.req.RequestURI = "/v1/explore", "/v1/explore"
				ph.warm(b)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ph.run(b)
				}
			})
		}
	}
}

// batchDocs draws the 256 worksheets of a batch-bulk-shaped body from
// r: the three case studies in turn, with their own names, each
// magnitude scaled by a seeded factor in [1/4, 4], alphas in [0.05, 1]
// and clocks in [50, 250] MHz, rounded as perfbench rounds them.
func batchDocs(r *rand.Rand) []worksheet.Doc {
	scale := func(v float64) float64 { return v * math.Exp2(4*r.Float64()-2) }
	round := func(v, unit float64) float64 { return math.Max(unit, math.Round(v/unit)*unit) }
	bases := []core.Parameters{paper.PDF1DParams(), paper.PDF2DParams(), paper.MDParams()}
	docs := make([]worksheet.Doc, 256)
	for i := range docs {
		d := worksheet.DocFromParams(bases[i%len(bases)])
		d.Dataset.ElementsIn = int64(round(scale(float64(d.Dataset.ElementsIn)), 1))
		d.Dataset.ElementsOut = int64(round(scale(float64(d.Dataset.ElementsOut)), 1))
		d.Comm.IdealThroughputMBps = round(scale(d.Comm.IdealThroughputMBps), 1)
		d.Comm.AlphaWrite = round(0.05+0.95*r.Float64(), 0.001)
		d.Comm.AlphaRead = round(0.05+0.95*r.Float64(), 0.001)
		d.Comp.OpsPerElement = round(scale(d.Comp.OpsPerElement), 1)
		d.Comp.ThroughputProc = round(scale(d.Comp.ThroughputProc), 0.1)
		d.Comp.ClockMHz = float64(50 + r.Intn(201))
		d.Soft.TSoftSeconds = round(scale(d.Soft.TSoftSeconds), 0.0001)
		d.Soft.Iterations = int64(round(scale(float64(d.Soft.Iterations)), 1))
		docs[i] = d
	}
	return docs
}

func marshalBatch(b *testing.B, docs []worksheet.Doc) []byte {
	body, err := json.Marshal(docs)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// batchPayload is one batch-bulk-shaped /v1/predict/batch body.
func batchPayload(b *testing.B) []byte {
	return marshalBatch(b, batchDocs(rand.New(rand.NewSource(7))))
}

// batchHarness is a default-config server's /v1/predict/batch fixture
// for body.
func batchHarness(body []byte) *predictHarness {
	ph := newPredictHarness(New(Config{}).Handler(), body, nil)
	ph.req.URL.Path, ph.req.RequestURI = "/v1/predict/batch", "/v1/predict/batch"
	return ph
}

// BenchmarkServerBatch measures one default-config POST
// /v1/predict/batch of 256 worksheets in process, JSON both ways: body
// read, wire decode, the batch kernel, wire encode (20 floats per
// worksheet), write. It replays one body whose worksheets carry the
// three case-study names, so every name hits the intern table. Not
// gated.
func BenchmarkServerBatch(b *testing.B) {
	ph := batchHarness(batchPayload(b))
	ph.warm(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph.run(b)
	}
}

// BenchmarkServerBatchUniqueNames is BenchmarkServerBatch over
// batch-bulk's name traffic: it cycles 64 bodies whose 16,384
// worksheets each carry a name of their own, so every name misses the
// 1,024-name intern table and the table keeps filling up. Not gated.
func BenchmarkServerBatchUniqueNames(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	bodies := make([][]byte, 64)
	for k := range bodies {
		docs := batchDocs(r)
		for i := range docs {
			docs[i].Name = "batch-bulk/" + strconv.Itoa(k*len(docs)+i)
		}
		bodies[k] = marshalBatch(b, docs)
	}
	ph := batchHarness(nil)
	next := func(i int) {
		ph.data = bodies[i%len(bodies)]
		ph.req.ContentLength = int64(len(ph.data))
		ph.run(b)
	}
	for i := range bodies {
		next(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next(i)
	}
}

// BenchmarkServerBatchFoldedKeys is BenchmarkServerBatch with every
// member name upper-cased ("CLOCK_MHZ"), which encoding/json matches by
// case folding: no key matches by its bytes, so each takes the general
// string path after the byte match misses. It bounds what a miss
// costs. Not gated.
func BenchmarkServerBatchFoldedKeys(b *testing.B) {
	plain := batchHarness(batchPayload(b))
	plain.run(b)
	ph := batchHarness(regexp.MustCompile(`"[a-z_]+":`).ReplaceAllFunc(batchPayload(b), bytes.ToUpper))
	ph.warm(b)
	if !bytes.Equal(ph.w.buf, plain.w.buf) {
		b.Fatal("folded keys change the batch answer")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph.run(b)
	}
}
