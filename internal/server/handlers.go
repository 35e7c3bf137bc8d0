package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/obs"
	"github.com/chrec/rat/internal/telemetry"
	"github.com/chrec/rat/internal/wire"
	"github.com/chrec/rat/internal/worksheet"
)

// httpStatus maps a request-shaped error to its status code: anything
// wrapping the invalid-parameters or worksheet-syntax sentinels is the
// caller's fault (400); context expiry is 504; the rest is 500.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrInvalidParameters), errors.Is(err, worksheet.ErrSyntax):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// maxInternedNames bounds the per-scratch worksheet-name intern table;
// a vocabulary churning past it empties the table in place rather than
// growing without bound.
const maxInternedNames = 1024

// maxBodyBytes caps request bodies on every POST endpoint; a larger
// body is the caller's fault (400).
const maxBodyBytes = 1 << 20

// scratch is the pooled per-request working set of the predict, batch
// and explore paths: the body read buffer, the cache-key buffer, the
// response build buffer and the worksheet-name intern table. One Get
// covers a whole request; nothing in it survives the handler.
type scratch struct {
	body []byte
	key  []byte
	out  []byte

	names map[string]string
	// internFn is the bound method value of intern, created once per
	// scratch so handing it to the decoder does not allocate a closure
	// per request.
	internFn func([]byte) string
}

var scratchPool = sync.Pool{New: func() any {
	sc := &scratch{
		body: make([]byte, 0, 4096),
		key:  make([]byte, 0, 1024),
		out:  make([]byte, 0, 2048),
	}
	sc.internFn = sc.intern
	return sc
}}

// intern returns the string form of a worksheet name, reusing the
// previously allocated string for repeat names — the steady-state
// traffic pattern (the same few worksheets asked about over and over)
// decodes names with zero allocations.
func (sc *scratch) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := sc.names[string(b)]; ok { // no-alloc map lookup
		return s
	}
	switch {
	case sc.names == nil:
		sc.names = make(map[string]string, 8)
	case len(sc.names) >= maxInternedNames:
		clear(sc.names) // keeps the buckets: a churning vocabulary does not regrow the map
	}
	s := string(b)
	sc.names[s] = s
	return s
}

// readBody slurps the request body into the pooled buffer, enforcing
// maxBodyBytes. An oversized or unreadable body is the caller's fault:
// readBody answers it 400 itself and returns ok == false.
//
//rat:hotpath
func (sc *scratch) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	buf := sc.body[:0]
	var err error
	for err == nil && len(buf) <= maxBodyBytes {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(max(2*cap(buf), 4096), maxBodyBytes+1))
			copy(grown, buf)
			buf = grown
		}
		var n int
		n, err = r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
	}
	sc.body = buf
	switch {
	case err != nil && !errors.Is(err, io.EOF):
		err = fmt.Errorf("%w: reading request body: %v", worksheet.ErrSyntax, err)
	case len(buf) > maxBodyBytes:
		err = fmt.Errorf("%w: request body larger than %d bytes", worksheet.ErrSyntax, maxBodyBytes)
	default:
		return buf, true
	}
	writeError(w, http.StatusBadRequest, err)
	return nil, false
}

// admit is the admission stage of every API request: it times the
// wait for adm, the endpoint's semaphore, and returns the request's
// stage clock and the grant, which the handler must release. When the
// request cannot go on, admit answers it and returns ok == false: 429
// + Retry-After naming the path when the endpoint stays full for the
// whole wait, or the context's error for a request that ended while
// it queued (abandoned, never executed late).
//
//rat:hotpath
func (s *Server) admit(w http.ResponseWriter, r *http.Request, adm *admission, weight int64) (clk stageClock, granted int64, ok bool) {
	clk = s.stageClock(w)
	clk.start()
	if granted, ok = adm.admit(r.Context(), weight); !ok {
		writeTooBusy(w, r.URL.Path) // the mux routes exact paths only
		return clk, 0, false
	}
	clk.stop(obs.StageAdmission)
	if err := r.Context().Err(); err != nil {
		adm.release(granted)
		writeError(w, httpStatus(err), err)
		return clk, 0, false
	}
	return clk, granted, true
}

// multiConfigFromQuery parses the optional devices/topology query
// parameters. Failures wrap core.ErrInvalidParameters (400).
func multiConfigFromQuery(devicesQ, topologyQ string) (core.MultiConfig, error) {
	cfg := core.MultiConfig{Devices: 1, Topology: core.SharedChannel}
	if devicesQ != "" {
		n, err := strconv.Atoi(devicesQ)
		if err != nil || n < 1 {
			return cfg, fmt.Errorf("%w: devices parameter must be a positive integer (got %q)",
				core.ErrInvalidParameters, devicesQ)
		}
		cfg.Devices = n
	}
	if topologyQ != "" {
		topo, err := api.ParseTopology(topologyQ)
		if err != nil {
			return cfg, fmt.Errorf("%w: %v", core.ErrInvalidParameters, err)
		}
		cfg.Topology = topo
	}
	return cfg, nil
}

// handlePredict serves POST /v1/predict: one worksheet in, one
// prediction out — bit-for-bit what rat.Predict (or rat.PredictMulti
// with ?devices=N) returns for the same worksheet. Either side of the
// exchange may independently be JSON (the default) or the binary wire
// format: Content-Type: application/x-rat-bin marks a binary request
// body, Accept: application/x-rat-bin asks for a binary response.
//
// The whole path runs over pooled buffers through the hand-rolled
// internal/wire codec: a steady-state cache hit performs zero
// allocations, and a cache miss only pays the kernel plus the response
// render. The stage clock times admission, cache, kernel and encode
// for traced requests only.
//
//rat:hotpath
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	clk, granted, ok := s.admit(w, r, s.admPredict, 1)
	if !ok {
		return
	}
	defer s.admPredict.release(granted)

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	body, ok := sc.readBody(w, r)
	if !ok {
		return
	}
	binReq := r.Header.Get("Content-Type") == wire.ContentTypeBinary
	binResp := r.Header.Get("Accept") == wire.ContentTypeBinary

	// The cache is keyed by the request bytes, so a hit is answered
	// without decoding the worksheet at all.
	if s.cache != nil {
		clk.start()
		sc.key = appendRequestKey(sc.key[:0], body, r.URL.RawQuery, binReq, binResp)
		cached, hit := s.cache.get(sc.key)
		clk.stop(obs.StageCache)
		if hit {
			clk.setHeader(w, r)
			writeBody(w, cached, binResp)
			return
		}
	}

	var p core.Parameters
	var err error
	if binReq {
		p, err = wire.DecodeBinaryWorksheet(body, sc.internFn)
	} else {
		p, err = wire.DecodeWorksheetIntern(body, sc.internFn)
	}
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	cfg := core.MultiConfig{Devices: 1, Topology: core.SharedChannel}
	if r.URL.RawQuery != "" { // Query() allocates; the common request has no query
		q := r.URL.Query()
		cfg, err = multiConfigFromQuery(q.Get("devices"), q.Get("topology"))
		if err != nil {
			writeError(w, httpStatus(err), err)
			return
		}
	}

	// The kernel is the validating core.Predict/PredictMulti, which
	// also refuses a result that overflowed to a non-finite number: the
	// worksheet's fault (400), caught before anything is rendered or
	// cached. One device answers with the plain prediction, which is
	// the multi-FPGA answer's N=1 baseline.
	var mp core.MultiPrediction
	clk.start()
	if cfg.Devices == 1 {
		mp.Single, err = core.Predict(p)
	} else {
		mp, err = core.PredictMulti(p, cfg)
	}
	clk.stop(obs.StageKernel)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	clk.start()
	sc.out, err = appendPrediction(sc.out[:0], &mp, cfg.Devices > 1, binResp)
	clk.stop(obs.StageEncode)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if s.cache != nil {
		s.cache.put(sc.key, sc.out)
	}
	clk.setHeader(w, r)
	writeBody(w, sc.out, binResp)
}

// appendPrediction renders a /v1/predict answer in the negotiated
// format: mp itself when multi, otherwise its single-device baseline.
//
//rat:hotpath
func appendPrediction(out []byte, mp *core.MultiPrediction, multi, binary bool) ([]byte, error) {
	if multi {
		apiMp := api.MultiPredictionFromCore(*mp)
		if binary {
			return wire.AppendBinaryMultiPrediction(out, &apiMp), nil
		}
		return wire.AppendMultiPrediction(out, &apiMp)
	}
	apiPr := api.PredictionFromCore(mp.Single)
	if binary {
		return wire.AppendBinaryPrediction(out, &apiPr), nil
	}
	return wire.AppendPrediction(out, &apiPr)
}

// slab is the pooled parameter/prediction storage of one
// /v1/predict/batch request.
type slab struct {
	ps  []core.Parameters
	out []core.Prediction
}

// batchSlabs pools the slabs behind /v1/predict/batch so steady-state
// batch serving reuses storage rather than allocating per request.
var batchSlabs = sync.Pool{New: func() any { return &slab{} }}

// handleBatch serves POST /v1/predict/batch: an array of worksheets —
// JSON by default, one binary frame with Content-Type:
// application/x-rat-bin — fanned into one core.PredictBatch evaluation
// over a pooled slab. Response element i is bit-for-bit rat.Predict of
// worksheet i; Accept: application/x-rat-bin selects the binary
// response frame, the cheap choice for bulk traffic.
//
//rat:hotpath
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	body, ok := sc.readBody(w, r)
	if !ok {
		return
	}
	sl := batchSlabs.Get().(*slab)
	defer batchSlabs.Put(sl)
	var err error
	sl.ps = sl.ps[:0]
	if r.Header.Get("Content-Type") == wire.ContentTypeBinary {
		sl.ps, err = wire.DecodeBinaryWorksheetBatch(body, sl.ps, sc.internFn)
	} else {
		sl.ps, err = wire.DecodeWorksheetDocs(body, sl.ps, sc.internFn)
	}
	if err == nil && len(sl.ps) == 0 {
		err = fmt.Errorf("%w: batch is empty", core.ErrInvalidParameters)
	}
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}

	// The tenancy layer charged 1 token before the body was readable;
	// top up to 1 per worksheet now that the count is known.
	if sw, ok := w.(*statusWriter); ok && sw.member != nil && len(sl.ps) > 1 {
		if !s.tenancy.charge(sw, sw.member, sw.tstat, float64(len(sl.ps)-1), time.Now()) {
			return
		}
	}

	// Weight admission by worksheet count: a 1000-worksheet batch
	// holds proportionally more of the endpoint's capacity than a
	// 2-worksheet one (clamped to the endpoint limit).
	clk, granted, ok := s.admit(w, r, s.admBatch, int64(len(sl.ps)))
	if !ok {
		return
	}
	defer s.admBatch.release(granted)

	if cap(sl.out) < len(sl.ps) {
		sl.out = make([]core.Prediction, len(sl.ps))
	}
	sl.out = sl.out[:len(sl.ps)]

	// PredictBatch validates every worksheet up front and refuses a
	// non-finite result; its errors name the offending index and wrap
	// ErrInvalidParameters.
	clk.start()
	err = core.PredictBatch(sl.ps, sl.out)
	clk.stop(obs.StageKernel)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	clk.start()
	binResp := r.Header.Get("Accept") == wire.ContentTypeBinary
	sc.out = sc.out[:0]
	if binResp {
		sc.out = wire.AppendBinaryPredictions(sc.out, sl.out)
	} else {
		sc.out, err = wire.AppendPredictions(sc.out, sl.out)
	}
	clk.stop(obs.StageEncode)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	clk.setHeader(w, r)
	writeBody(w, sc.out, binResp)
}

// handleExplore serves POST /v1/explore: a bounded grid search via
// internal/explore, in one pass on the request goroutine. The body is
// read into pooled scratch and decoded by internal/wire, the grid is
// compiled once, the engine runs under the request context, and the
// response is rendered by internal/wire. The candidate ceiling is
// server-enforced (see prepareExplore). With ?stream=jsonl the
// response is JSONL: top candidates, then frontier candidates when
// requested, then a summary line.
//
// The engine checks the request context at every shard boundary, so
// a client that leaves or a deadline that passes stops it within one
// shard (a 504), and the admission slot is released only once the
// engine has returned.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	clk, granted, ok := s.admit(w, r, s.admExplore, 1)
	if !ok {
		return
	}
	defer s.admExplore.release(granted)

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	body, ok := sc.readBody(w, r)
	if !ok {
		return
	}
	req, err := wire.DecodeExploreRequest(body)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	job, ok := prepareExplore(w, &req, s.exploreWorkers, s.cfg.MaxExploreCandidates, "explorations")
	if !ok {
		return
	}
	var stream, wantSpans bool
	if r.URL.RawQuery != "" { // Query() allocates; the common request has no query
		q := r.URL.Query()
		stream = q.Get("stream") == "jsonl"
		wantSpans = stream && q.Get("spans") == "1"
	}
	job.Options.Metrics = s.reg
	job.Options.CollectSpans = wantSpans

	res, err := job.Grid.Run(r.Context(), job.Options)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	// The engine measures its own elapsed time; that is the kernel
	// stage of an exploration request.
	clk.record(obs.StageKernel, res.Elapsed)

	if stream {
		sc.out = wire.AppendExploreJSONL(sc.out[:0], &res, req.Frontier, wantSpans)
		h := w.Header()
		h.Set("Content-Type", "application/x-ndjson")
		setLength(h, len(sc.out))
		clk.setHeader(w, r)
		w.Write(sc.out)
		return
	}
	clk.start()
	sc.out, err = wire.AppendExploreResponse(sc.out[:0], &res, req.Frontier)
	clk.stop(obs.StageEncode)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	clk.setHeader(w, r)
	writeBody(w, sc.out, false)
}

// prepareExplore is the one validation stage of both explore
// endpoints: api.ExploreRequest.Prepare with the given engine worker
// count, then the candidate ceiling, whose 413 names what it caps.
// Grids beyond the ceiling are refused outright rather than queued,
// because no deadline could save them. prepareExplore answers every
// refusal itself and returns ok == false.
func prepareExplore(w http.ResponseWriter, req *api.ExploreRequest, workers int, ceiling uint64, what string) (job api.ExploreJob, ok bool) {
	job, err := req.Prepare(workers)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return job, false
	}
	if job.Span > ceiling {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request asks for %d candidates; this server caps %s at %d", job.Span, what, ceiling))
		return job, false
	}
	return job, true
}

// handleHealthz reports liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz reports readiness: 200 while accepting work, 503 once
// draining so load balancers stop routing here.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

// handleMetrics renders the registry. The default is the legacy text
// listing of internal/telemetry — the same listing ratsim -metrics
// prints. Prometheus scrapers (Accept naming format 0.0.4 or
// OpenMetrics, or ?format=prometheus) get the exposition format
// instead. Scraping sets the rat_uptime_seconds gauge.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.uptime.Set(time.Since(s.start).Seconds())
	snap := s.reg.Snapshot()
	var buf bytes.Buffer
	if wantsProm(r) {
		if err := telemetry.WriteProm(&buf, snap); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", telemetry.ContentTypeProm)
		w.Write(buf.Bytes())
		return
	}
	if err := telemetry.WriteText(&buf, snap); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf.Bytes())
}

// newline terminates JSON response bodies, kept as a package var so
// the write does not allocate.
var newline = []byte("\n")

// writeBody answers 200 with a pre-rendered response body in the
// negotiated wire format. The Content-Type set is skipped when the
// header is already present — on a reused recorder that makes the
// cached-hit write allocation-free, and setting the same value twice
// is a no-op anyway. JSON bodies keep their historical trailing
// newline; binary frames are written verbatim.
//
//rat:hotpath
func writeBody(w http.ResponseWriter, body []byte, binary bool) {
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		if binary {
			h["Content-Type"] = contentTypeBinaryValue
		} else {
			h["Content-Type"] = contentTypeJSONValue
		}
	}
	n := len(body)
	if !binary {
		n += len(newline)
	}
	setLength(h, n)
	w.Write(body)
	if !binary {
		w.Write(newline)
	}
}

// chunkingBuffer is how much of a body net/http holds back before it
// sends the header: a handler that writes no more and returns gets a
// Content-Length from net/http, and a longer body goes out chunked
// unless the handler declared its length.
const chunkingBuffer = 2048

// setLength declares the length of a fully rendered body of n bytes
// when net/http would otherwise send it chunked. Shorter bodies get
// their length from net/http, so their writes stay allocation-free.
func setLength(h http.Header, n int) {
	if n > chunkingBuffer {
		h["Content-Length"] = []string{strconv.Itoa(n)}
	}
}

// Pre-built header values: assigning a shared slice avoids the
// per-request []string{v} allocation http.Header.Set performs.
var (
	contentTypeJSONValue   = []string{"application/json"}
	contentTypeBinaryValue = []string{wire.ContentTypeBinary}
)
