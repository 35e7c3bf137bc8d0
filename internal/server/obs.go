package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/obs"
	"github.com/chrec/rat/internal/telemetry"
)

// endpointClass indexes the pre-created RED metric handles so the hot
// path never takes the registry lock or formats a metric name.
type endpointClass int

const (
	epPredict endpointClass = iota
	epBatch
	epExplore
	epMeta
	epOther
	numEndpoints
)

// classifyPath buckets a request path into its endpoint class.
func classifyPath(path string) endpointClass {
	switch path {
	case "/v1/predict":
		return epPredict
	case "/v1/predict/batch":
		return epBatch
	case "/v1/explore", "/v1/explore/distributed":
		return epExplore
	case "/healthz", "/readyz", "/metrics", "/v1/status":
		return epMeta
	}
	return epOther
}

// label returns the endpoint label value used in metric names.
func (e endpointClass) label() string {
	switch e {
	case epPredict:
		return "predict"
	case epBatch:
		return "batch"
	case epExplore:
		return "explore"
	case epMeta:
		return "meta"
	}
	return "other"
}

// redCodes are the status codes with pre-created counters; anything
// else falls back to a registry lookup (rare, off the hot path).
var redCodes = [...]int{200, 400, 404, 408, 413, 429, 500, 503, 504}

// requestSecondsBounds spans 100µs to 10s, the service's realistic
// request-latency range.
var requestSecondsBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// redMetrics is the per-endpoint RED instrumentation: request counts
// by status code and request duration histograms. Handles are created
// once at server construction.
type redMetrics struct {
	reg     *telemetry.Registry
	seconds [numEndpoints]*telemetry.Histogram
	codes   [numEndpoints]map[int]*telemetry.Counter
}

func newRedMetrics(reg *telemetry.Registry) *redMetrics {
	m := &redMetrics{reg: reg}
	for ep := endpointClass(0); ep < numEndpoints; ep++ {
		m.seconds[ep] = reg.Histogram(
			//rat:bounded-labels endpoint is a fixed enum label
			`rat_request_seconds{endpoint="`+ep.label()+`"}`, requestSecondsBounds)
		m.codes[ep] = make(map[int]*telemetry.Counter, len(redCodes))
		for _, code := range redCodes {
			m.codes[ep][code] = m.counter(ep, code)
		}
	}
	return m
}

func (m *redMetrics) counter(ep endpointClass, code int) *telemetry.Counter {
	//rat:bounded-labels code is an HTTP status, endpoint a fixed enum label
	return m.reg.Counter(fmt.Sprintf(`rat_requests_total{code="%d",endpoint="%s"}`,
		code, ep.label()))
}

// observe records one finished request. Pre-created handles make the
// common codes allocation-free.
func (m *redMetrics) observe(ep endpointClass, code int, elapsed time.Duration) {
	m.seconds[ep].Observe(elapsed.Seconds())
	c, ok := m.codes[ep][code]
	if !ok {
		c = m.counter(ep, code)
	}
	c.Inc()
}

// stageClock times the pipeline stages of one request. It is the one
// place that decides whether a stage is timed: only a request with a
// trace identity (an incoming X-Rat-Trace, or one minted for the
// access log) reads the clock, so an untraced request pays no clock
// reads between admission and write. It is a plain value on the
// handler's stack: no closure, no interface, no allocation.
type stageClock struct {
	stages *[obs.NumStages]*telemetry.Histogram
	tr     *obs.Trace // nil when untraced: every method is a no-op
	t0     time.Time
}

// stageClock returns the clock of the request being answered on w.
// Stages it records feed the server-wide rat_stage_seconds histograms
// and the request's Trace (X-Rat-Stages, the access log's stages_ns).
func (s *Server) stageClock(w http.ResponseWriter) stageClock {
	c := stageClock{stages: &s.stages}
	if sw, ok := w.(*statusWriter); ok && sw.tr.Valid() {
		c.tr = &sw.tr
	}
	return c
}

// start marks the beginning of a stage.
func (c *stageClock) start() {
	if c.tr != nil {
		c.t0 = time.Now()
	}
}

// stop records the time since the last start as stage st.
func (c *stageClock) stop(st obs.Stage) {
	if c.tr != nil {
		c.lap(st)
	}
}

// lap is the traced half of stop, kept out of line so that stop
// inlines and an untraced request pays only the nil check.
func (c *stageClock) lap(st obs.Stage) { c.record(st, time.Since(c.t0)) }

// record records a stage duration measured elsewhere (the explore
// engine times its own run).
func (c *stageClock) record(st obs.Stage, d time.Duration) {
	if c.tr != nil {
		c.stages[st].Observe(d.Seconds())
		c.tr.Add(st, d)
	}
}

// setHeader answers the opt-in X-Rat-Stages request header with the
// per-stage breakdown recorded so far. Callers invoke it after the
// last stage and before the body is written.
func (c *stageClock) setHeader(w http.ResponseWriter, r *http.Request) {
	if c.tr == nil || r.Header.Get(obs.StagesHeader) == "" {
		return
	}
	w.Header().Set(obs.StagesHeader, c.tr.StagesValue())
}

// handleStatus serves GET /v1/status: the live operational snapshot
// documented in docs/OBSERVABILITY.md. Its requests field counts
// completed requests, the sum of the per-endpoint latency counts.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	uptime := time.Since(s.start).Seconds()
	st := api.Status{
		UptimeSeconds: uptime,
		Draining:      s.draining.Load(),
		Endpoints:     make(map[string]api.EndpointStatus, int(numEndpoints)),
		Stages:        make(map[string]api.StageStatus, int(obs.NumStages)),
	}
	admissions := map[endpointClass]*admission{
		epPredict: s.admPredict, epBatch: s.admBatch, epExplore: s.admExplore,
	}
	for ep := endpointClass(0); ep < numEndpoints; ep++ {
		hs := s.red.seconds[ep].Stats()
		st.Requests += hs.Count
		es := api.EndpointStatus{
			Requests: hs.Count,
			P50Ms:    hs.Quantile(0.50) * 1e3,
			P95Ms:    hs.Quantile(0.95) * 1e3,
			P99Ms:    hs.Quantile(0.99) * 1e3,
		}
		if adm := admissions[ep]; adm != nil {
			es.Inflight = adm.inflight.Value()
			es.Peak = adm.peakG.Value()
			es.Rejected = adm.rejected.Value()
		}
		st.Endpoints[ep.label()] = es
	}
	if uptime > 0 {
		st.QPS = float64(st.Requests) / uptime
	}
	if s.cache != nil {
		hits, misses := s.cache.hits.Value(), s.cache.misses.Value()
		st.Cache = api.CacheStatus{
			Hits:    hits,
			Misses:  misses,
			Entries: s.cache.sizeG.Value(),
		}
		if hits+misses > 0 {
			st.Cache.HitRatio = float64(hits) / float64(hits+misses)
		}
	}
	if t := s.tenancy; t != nil {
		st.Tenants = make(map[string]api.TenantStatus, t.reg.Len())
		for _, name := range t.reg.Names() {
			member, ok := t.reg.ByName(name)
			if !ok {
				continue
			}
			stat := t.stat(name)
			st.Tenants[name] = api.TenantStatus{
				Requests:            stat.requests.Value(),
				RejectedQuota:       stat.rejectQuota.Value(),
				RejectedConcurrency: stat.rejectConc.Value(),
				Inflight:            member.Inflight(),
				PeakInflight:        member.PeakInflight(),
				P99Ms:               stat.seconds.Stats().Quantile(0.99) * 1e3,
			}
		}
	}
	for _, stg := range obs.Stages() {
		hs := s.stages[stg].Stats()
		st.Stages[stg.String()] = api.StageStatus{
			Count: hs.Count,
			P50Us: hs.Quantile(0.50) * 1e6,
			P95Us: hs.Quantile(0.95) * 1e6,
			P99Us: hs.Quantile(0.99) * 1e6,
		}
	}
	out, err := json.Marshal(st)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, out, false)
}

// wantsProm reports whether the client asked for Prometheus text
// exposition: an Accept header naming format version 0.0.4 (what a
// Prometheus scraper sends) or OpenMetrics, or an explicit
// ?format=prometheus override. The default stays the legacy listing.
func wantsProm(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "version=0.0.4") ||
		strings.Contains(accept, "openmetrics")
}
