// Package server implements ratd, the RAT prediction service: an
// HTTP/JSON daemon serving the throughput test (Eqs. 1-11), the
// multi-FPGA extension and bounded design-space explorations from the
// existing worksheet JSON format. The serving core is production
// shaped: one direct call into the closed-form kernel per request
// (core.PredictBatch per explicit batch), an LRU response cache keyed
// by the verbatim request, one weighted FIFO semaphore per endpoint
// for admission control (saturation answers 429 + Retry-After),
// context-propagated deadlines, panic recovery, structured JSONL
// request logging through log/slog, and graceful drain. See
// docs/SERVER.md for the wire contract and the operational runbook.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/obs"
	"github.com/chrec/rat/internal/telemetry"
	"github.com/chrec/rat/internal/tenant"
)

// Config tunes a Server. The zero value serves with the defaults
// documented per field.
type Config struct {
	// CacheSize is the LRU response-cache capacity in entries; 0
	// disables caching. Default 1024. Negative disables explicitly.
	CacheSize int

	// PredictLimit, BatchLimit and ExploreLimit bound concurrently
	// admitted requests per endpoint (batch requests weigh their
	// worksheet count). Each endpoint queues on its own limit only.
	// Defaults 64, 16, 2. An admitted exploration runs
	// GOMAXPROCS/ExploreLimit engine workers, at least one.
	PredictLimit int
	BatchLimit   int
	ExploreLimit int
	// AdmissionWait bounds how long a request may queue for admission
	// before being answered 429. Default 10ms.
	AdmissionWait time.Duration

	// PredictTimeout and ExploreTimeout are the per-request deadlines
	// propagated through context: PredictTimeout bounds
	// /v1/predict/batch, ExploreTimeout both explore endpoints. A
	// single /v1/predict has no wait a deadline would shorten (its
	// admission wait is bounded by AdmissionWait). Defaults 10s and 2m.
	PredictTimeout time.Duration
	ExploreTimeout time.Duration

	// MaxExploreCandidates caps the candidate span a single
	// /v1/explore may ask for (a sharded request is charged for its
	// index range, not the whole grid). Default 4Mi candidates.
	MaxExploreCandidates uint64
	// MaxDistributedCandidates caps the candidate span a
	// /v1/explore/distributed request may fan out across its fleet.
	// Fleet-scale, so far above the per-node ceiling; each shard
	// re-passes the per-node ceiling on its worker. Default 1Gi.
	MaxDistributedCandidates uint64

	// Tenants, when non-nil, turns on multi-tenant admission: every
	// API request must carry a configured key (Authorization: Bearer
	// or X-Rat-Key), is charged against its tenant's token bucket and
	// concurrency cap, and is accounted in per-tenant RED metrics. Nil
	// serves untenanted with a request path byte-identical to the
	// pre-tenancy server. See docs/TENANCY.md.
	Tenants *tenant.Registry
	// ExploreTokenCost is the token-bucket charge for one /v1/explore
	// request (predict costs 1, batch costs 1 per worksheet). Default
	// 16.
	ExploreTokenCost float64

	// AccessLogger, when non-nil, receives one structured record per
	// request with method, path, status, bytes, duration, trace_id,
	// span_id and the per-stage latency breakdown. This is the access
	// log ratd writes as JSONL.
	AccessLogger *slog.Logger
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.PredictLimit <= 0 {
		c.PredictLimit = 64
	}
	if c.BatchLimit <= 0 {
		c.BatchLimit = 16
	}
	if c.ExploreLimit <= 0 {
		c.ExploreLimit = 2
	}
	if c.AdmissionWait == 0 {
		c.AdmissionWait = 10 * time.Millisecond
	}
	if c.PredictTimeout <= 0 {
		c.PredictTimeout = 10 * time.Second
	}
	if c.ExploreTimeout <= 0 {
		c.ExploreTimeout = 2 * time.Minute
	}
	if c.MaxExploreCandidates == 0 {
		c.MaxExploreCandidates = 4 << 20
	}
	if c.MaxDistributedCandidates == 0 {
		c.MaxDistributedCandidates = 1 << 30
	}
	if c.ExploreTokenCost <= 0 {
		c.ExploreTokenCost = 16
	}
	return c
}

// Server is the ratd serving core. Construct with New, expose with
// Handler or Serve, stop with Shutdown.
type Server struct {
	cfg Config
	reg *telemetry.Registry

	cache *responseCache

	admPredict *admission
	admBatch   *admission
	admExplore *admission

	tenancy *tenancy

	// exploreWorkers is the engine worker count of one served
	// exploration: the CPUs shared out over ExploreLimit admitted
	// explores, at least one. Admission alone decides how many run.
	exploreWorkers int

	handler  http.Handler
	hs       *http.Server
	draining atomic.Bool
	start    time.Time

	panics *telemetry.Counter
	uptime *telemetry.Gauge
	red    *redMetrics
	stages [obs.NumStages]*telemetry.Histogram
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg:            cfg,
		reg:            reg,
		cache:          newResponseCache(reg, cfg.CacheSize),
		admPredict:     newAdmission(reg, "predict", int64(cfg.PredictLimit), cfg.AdmissionWait),
		admBatch:       newAdmission(reg, "batch", int64(cfg.BatchLimit), cfg.AdmissionWait),
		admExplore:     newAdmission(reg, "explore", int64(cfg.ExploreLimit), cfg.AdmissionWait),
		exploreWorkers: max(1, runtime.GOMAXPROCS(0)/cfg.ExploreLimit),
		panics:         reg.Counter("rat_panics_total"),
		uptime:         reg.Gauge("rat_uptime_seconds"),
		red:            newRedMetrics(reg),
		start:          time.Now(),
	}
	for _, st := range obs.Stages() {
		//rat:bounded-labels stage is a fixed enum label
		s.stages[st] = reg.Histogram(`rat_stage_seconds{stage="`+st.String()+`"}`, obs.StageBounds())
	}
	if cfg.Tenants != nil {
		s.tenancy = newTenancy(reg, cfg.Tenants, cfg.ExploreTokenCost)
	}
	mux := http.NewServeMux()
	// handlePredict is registered bare: its kernel runs in microseconds
	// and the one wait a deadline could cut short, admission, is
	// already bounded by AdmissionWait, so WithTimeout would only add
	// its allocations to every call.
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/predict/batch", s.withTimeout(cfg.PredictTimeout, s.handleBatch))
	mux.HandleFunc("POST /v1/explore", s.withTimeout(cfg.ExploreTimeout, s.handleExplore))
	mux.HandleFunc("POST /v1/explore/distributed", s.withTimeout(cfg.ExploreTimeout, s.handleExploreDistributed))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.handler = s.middleware(mux)
	// Built here, not in Serve: Shutdown reads s.hs from another
	// goroutine, so the assignment must happen-before both.
	s.hs = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the fully wrapped HTTP handler, for tests and for
// embedding the service into an existing mux.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics returns the server's telemetry registry.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean drain, mirroring net/http.
func (s *Server) Serve(l net.Listener) error {
	return s.hs.Serve(l)
}

// Shutdown drains the server: the readiness probe flips to 503, the
// listener stops accepting, and in-flight requests run to completion
// (or to their own deadlines) bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.hs == nil {
		return nil
	}
	return s.hs.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// statusWriter captures the status code and byte count for logging,
// and owns the request's Trace. Embedding the Trace by value here puts
// the whole per-request observability record inside one pooled
// allocation, so tracing adds no allocation of its own. Writers are
// recycled through swPool — nothing may retain one past the
// middleware's deferred epilogue.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	tr     obs.Trace

	// member and tstat are set when the tenancy layer admits the
	// request; the middleware's deferred block releases the slot and
	// records per-tenant latency through them (on the panic path too).
	member *tenant.Member
	tstat  *tenantStat
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// swPool recycles statusWriters; the reset in middleware clears every
// field, so a pooled writer carries nothing across requests.
var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

// middleware wraps the mux with panic recovery, request metrics, trace
// ingress/echo and structured access logging.
func (s *Server) middleware(next http.Handler) http.Handler {
	logging := s.cfg.AccessLogger != nil
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := classifyPath(r.URL.Path)
		sw := swPool.Get().(*statusWriter)
		*sw = statusWriter{ResponseWriter: w}
		// Trace ingress: accept a well-formed X-Rat-Trace and echo the
		// incoming value back verbatim (the caller's round-trip proof).
		// Without one, mint an identity only when a log will carry it —
		// the untraced hot path stays allocation-free.
		if hdr := r.Header.Get(obs.TraceHeader); hdr != "" {
			if id, span, ok := obs.ParseTraceHeader(hdr); ok {
				sw.tr.ID, sw.tr.Span = id, span
				w.Header().Set(obs.TraceHeader, hdr)
			}
		}
		if !sw.tr.Valid() && logging {
			sw.tr.ID, sw.tr.Span = obs.NewTraceID(), obs.NewSpanID()
			w.Header().Set(obs.TraceHeader, sw.tr.Header())
		}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Inc()
				// The handler died mid-request; if nothing was written
				// yet the client still gets a well-formed 500.
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError,
						fmt.Errorf("internal error: %v", rec))
				}
				debug.PrintStack()
			}
			elapsed := time.Since(start)
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			s.red.observe(ep, status, elapsed)
			if sw.member != nil {
				s.tenancy.finish(sw, elapsed)
			}
			if logging {
				s.cfg.AccessLogger.LogAttrs(context.Background(), slog.LevelInfo, "request",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Int("status", status),
					slog.Int64("bytes", sw.bytes),
					slog.Int64("dur_us", elapsed.Microseconds()),
					slog.String("trace_id", sw.tr.ID.String()),
					slog.String("span_id", sw.tr.Span.String()),
					slog.String("stages_ns", sw.tr.StagesValue()),
				)
			}
			swPool.Put(sw)
		}()
		if s.tenancy != nil && ep < epMeta {
			if !s.tenancy.admit(sw, r, ep, start) {
				return // response written: 401 or 429 + Retry-After
			}
		}
		next.ServeHTTP(sw, r)
	})
}

// withTimeout propagates a server-enforced deadline through the
// request context. Handlers reach the request's Trace through the
// statusWriter (see stageClock), so no context injection is needed.
func (s *Server) withTimeout(d time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// writeError answers with the JSON error body.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, merr := json.Marshal(api.Error{Error: err.Error()})
	if merr != nil {
		body = []byte(`{"error":"internal error"}`)
	}
	w.Write(body)
	w.Write(newline)
}

// writeTooBusy answers 429 with a Retry-After hint.
func writeTooBusy(w http.ResponseWriter, endpoint string) {
	w.Header().Set("Retry-After", strconv.Itoa(1))
	writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("%s is at its concurrency limit; retry after backoff", endpoint))
}
