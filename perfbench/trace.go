package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/obs"
	"github.com/chrec/rat/internal/server"
	"github.com/chrec/rat/internal/wire"
)

// The traced run: per-layer figures measured from outside. The server
// layer comes from /metrics deltas and the X-Rat-Stages breakdown of
// traced requests; wire, core and explore come from timing their
// public functions in process on the workload's own inputs.

// maxSpanRequests bounds how many traced requests are written out as
// spans; every traced request still feeds the stage percentiles.
const maxSpanRequests = 10000

// span is one recorded interval. Request spans carry the trace ID the
// request was sent with; their stage children come from the server's
// X-Rat-Stages header, laid end to end in pipeline order from the
// request's start (the header gives durations, not offsets).
type span struct {
	Trace   string  `json:"trace,omitempty"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"` // since the run began
	DurUs   float64 `json:"dur_us"`
	Calls   int64   `json:"calls,omitempty"` // calls a layer span covers
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(trace string, parent int, name string, start time.Time, dur time.Duration, calls int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		StartUs: float64(start.Sub(l.t0)) / 1e3, DurUs: float64(dur) / 1e3, Calls: calls,
	})
	return id
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseStages reads an X-Rat-Stages value
// ("admission=120;cache=35;batch_wait=0;kernel=90;encode=15", ns).
func parseStages(v string) ([obs.NumStages]int64, error) {
	var out [obs.NumStages]int64
	for _, kv := range strings.Split(v, ";") {
		k, n, ok := strings.Cut(kv, "=")
		if !ok {
			return out, fmt.Errorf("malformed stage %q in %q", kv, v)
		}
		ns, err := strconv.ParseInt(n, 10, 64)
		if err != nil {
			return out, fmt.Errorf("stage %q in %q: %w", kv, v, err)
		}
		for _, s := range obs.Stages() {
			if s.String() == k {
				out[s] = ns
			}
		}
	}
	return out, nil
}

// sink keeps the results of timed calls alive.
var sink atomic.Int64

// timeCalls runs pass (one sweep over the inputs, returning the calls
// it made) once untimed, then repeats it until budget has passed, records one span around it,
// and returns the mean nanoseconds per call.
func timeCalls(l *spanLog, name string, budget time.Duration, pass func() int) float64 {
	pass() // warm caches and pools before timing
	start := time.Now()
	calls := 0
	for calls == 0 || time.Since(start) < budget {
		calls += pass()
	}
	elapsed := time.Since(start)
	l.add("", 0, name, start, elapsed, int64(calls))
	return float64(elapsed) / float64(calls)
}

// allocsPerCall counts heap allocations over one pass.
func allocsPerCall(pass func() int) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls := pass()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// percentileUs is the nearest-rank percentile of ns samples in µs.
// Per-layer samples can be few (a stage only a warm-up enters): below
// the p99 support rule the figure is the highest percentile the sample
// does support, and the stage's _n count says how many there were.
func percentileUs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := sortedCopy(ns)
	if !supports(len(s), q) {
		q = max(highestSupported(len(s)), 0.5)
	}
	rank := max(1, int(math.Ceil(q*float64(len(s)))))
	return float64(s[rank-1]) / 1e3
}

// runTraced is the per-layer run: one traced set-up, an untraced phase
// bracketed by /metrics scrapes, a traced phase of the same length,
// then the in-process layer calls.
func runTraced(ctx context.Context, cfg config, errOut io.Writer) (result, error) {
	in, err := generate(cfg.workload, cfg.seed, runtime.NumCPU())
	if err != nil {
		return result{}, err
	}
	spans := &spanLog{t0: time.Now()}
	// The load phases run at the end-to-end run's GOMAXPROCS, so the
	// untraced figures here match it; the in-process layer calls get
	// every CPU back.
	prev := runtime.GOMAXPROCS(clientProcs)
	d, _, warm, err := bringUp(ctx, cfg, in, 1, true)
	if err != nil {
		return result{}, err
	}
	defer d.stop()
	client := newClient(in.conns)
	defer client.CloseIdleConnections()

	phase := seconds(0.4 * cfg.seconds)
	before, err := scrapeMetrics(client, d.base)
	if err != nil {
		return result{}, err
	}
	plain, _ := loop(ctx, client, d.base, in.run, in.conns, phase, false)
	after, err := scrapeMetrics(client, d.base)
	if err != nil {
		return result{}, err
	}
	traced, _ := loop(ctx, client, d.base, in.run, in.conns, phase, true)
	runtime.GOMAXPROCS(prev)
	if err := d.stop(); err != nil {
		return result{}, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	layers := layersFromMetrics(before, after, plain.attempted)
	put("server.cache.hit_ratio", "ratio", layers.cacheHit.value)
	put("server.cache.lookups", "count", layers.cacheHit.base)
	put("server.cache.evictions_per_op", "ratio", layers.evictionsPerOp.value)
	put("server.ops", "count", layers.evictionsPerOp.base)
	put("server.batcher.batch_size_mean", "requests", layers.batchSizeMean.value)
	put("server.batcher.batches", "count", layers.batchSizeMean.base)
	for _, ep := range endpoints {
		put("server.admission.rejected_share."+ep, "ratio", layers.rejected[ep].value)
		put("server.admission.requests."+ep, "count", layers.rejected[ep].base)
	}

	// Stages: every traced request, the traced warm-up included, so a
	// stage the steady state skips (the miss path of predict-hot) is
	// still measured on the workload's own requests.
	reqs := append(append([]tracedRequest{}, warm.traces...), traced.traces...)
	var stageNs [obs.NumStages][]int64
	var unstaged []int64
	for i, tr := range reqs {
		st, err := parseStages(tr.stages)
		if err != nil {
			return result{}, err
		}
		sum := int64(0)
		for s, ns := range st {
			if ns > 0 {
				stageNs[s] = append(stageNs[s], ns)
			}
			sum += ns
		}
		if i >= len(warm.traces) {
			unstaged = append(unstaged, tr.latency-sum)
		}
		if i < maxSpanRequests {
			root := spans.add(tr.trace, 0, "POST "+tr.path, tr.start, time.Duration(tr.latency), 0)
			at := tr.start
			for _, s := range obs.Stages() {
				if st[s] > 0 {
					spans.add(tr.trace, root, s.String(), at, time.Duration(st[s]), 0)
					at = at.Add(time.Duration(st[s]))
				}
			}
		}
	}
	for _, s := range obs.Stages() {
		put("server.stage."+s.String()+"_us_p50", "us", percentileUs(stageNs[s], 0.50))
		put("server.stage."+s.String()+"_us_p99", "us", percentileUs(stageNs[s], 0.99))
		put("server.stage."+s.String()+"_n", "count", float64(len(stageNs[s])))
	}
	put("server.unstaged_us_p50", "us", percentileUs(unstaged, 0.50))
	tracedP50 := percentileUs(traced.latencies, 0.50)
	plainP50 := percentileUs(plain.latencies, 0.50)
	put("trace.traced_us_p50", "us", tracedP50)
	put("trace.untraced_us_p50", "us", plainP50)
	put("trace.overhead_us_p50", "us", tracedP50-plainP50)
	plainP99, _, err := windowedP99(plain.starts, plain.latencies)
	if err != nil {
		return result{}, fmt.Errorf("untraced phase too short: %w", err)
	}
	put("trace.untraced_us_p99", "us", float64(plainP99)/1e3)

	budget := seconds(0.1 * cfg.seconds)
	hs, err := handlerLatencies(ctx, in, budget, spans)
	if err != nil {
		return result{}, err
	}
	put("server.handler_us_p50", "us", percentileUs(hs, 0.50))
	if err := layerCalls(in, seconds(0.1*cfg.seconds), spans, put); err != nil {
		return result{}, err
	}

	spanFile := fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", cfg.workload, cfg.seed)
	if err := spans.write(spanFile); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	total := &tally{}
	total.merge(plain)
	total.merge(traced)
	fmt.Fprintf(errOut, "perfbench: %s seed=%d traced run: %d+%d requests, %d spans in %s\n",
		cfg.workload, cfg.seed, plain.requests, traced.requests, len(spans.spans), spanFile)
	return result{
		Correct:   total.wrong == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   m,
	}, nil
}

// handlerLatencies runs the workload's warm-up and then its measured
// requests for budget through server.New(server.Config{}).Handler() in
// process, over the same number of goroutines as the workload has
// connections: the round trip without loopback and net/http.
func handlerLatencies(ctx context.Context, in *inputs, budget time.Duration, spans *spanLog) ([]int64, error) {
	h := server.New(server.Config{}).Handler()
	serve := func(it *item) (int64, bool) {
		req := httptest.NewRequest(http.MethodPost, it.path, bytes.NewReader(it.body)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		return int64(time.Since(t0)), rec.Code == http.StatusOK && it.check(rec.Body.Bytes())
	}
	var bad atomic.Int64
	var next atomic.Int64
	fanOut(in.conns, func(_ int, _ *tally) {
		for i := next.Add(1) - 1; i < int64(len(in.warm)); i = next.Add(1) - 1 {
			if _, ok := serve(&in.warm[i]); !ok {
				bad.Add(1)
			}
		}
	})
	next.Store(0)
	start := time.Now()
	deadline := start.Add(budget)
	lat := fanOut(in.conns, func(_ int, t *tally) {
		for time.Now().Before(deadline) && ctx.Err() == nil {
			ns, ok := serve(&in.run[(next.Add(1)-1)%int64(len(in.run))])
			if !ok {
				bad.Add(1)
				continue
			}
			t.latencies = append(t.latencies, ns)
		}
	}).latencies
	spans.add("", 0, "in-process server.Handler", start, time.Since(start), int64(len(lat)))
	if n := bad.Load(); n > 0 {
		return nil, fmt.Errorf("in-process handler: %d wrong or failed answers", n)
	}
	return lat, nil
}

// layerCalls times each module's public functions on the workload's
// inputs, budget per layer figure.
func layerCalls(in *inputs, budget time.Duration, spans *spanLog, put func(name, unit string, v float64)) error {
	per := budget / 10

	// wire: the predict path's decode and encode.
	decodeAll := func() int {
		for _, b := range in.docs {
			p, _ := wire.DecodeWorksheet(b)
			sink.Add(p.Dataset.ElementsIn)
		}
		return len(in.docs)
	}
	put("wire.decode_worksheet_ns", "ns", timeCalls(spans, "wire.DecodeWorksheet", per, decodeAll))
	put("wire.decode_worksheet_allocs", "allocs", allocsPerCall(decodeAll))
	preds := make([]core.Prediction, len(in.params))
	apiPreds := make([]api.Prediction, len(in.params))
	for i, p := range in.params {
		pr, err := core.Predict(p)
		if err != nil {
			return err
		}
		preds[i], apiPreds[i] = pr, api.PredictionFromCore(pr)
	}
	buf := make([]byte, 0, 1<<20)
	put("wire.encode_prediction_ns", "ns", timeCalls(spans, "wire.AppendPrediction", per, func() int {
		for i := range apiPreds {
			buf, _ = wire.AppendPrediction(buf[:0], &apiPreds[i])
			sink.Add(int64(len(buf)))
		}
		return len(apiPreds)
	}))
	docsPerBatch := 0
	for _, b := range in.batches {
		ps, err := wire.DecodeWorksheetDocs(b, nil, nil)
		if err != nil {
			return err
		}
		docsPerBatch += len(ps)
	}
	ps := make([]core.Parameters, 0, batchSize)
	put("wire.decode_docs_ns_per_worksheet", "ns", timeCalls(spans, "wire.DecodeWorksheetDocs", per, func() int {
		for _, b := range in.batches {
			ps, _ = wire.DecodeWorksheetDocs(b, ps[:0], nil)
			sink.Add(int64(len(ps)))
		}
		return docsPerBatch
	}))
	put("wire.encode_predictions_ns_per_worksheet", "ns", timeCalls(spans, "wire.AppendPredictions", per, func() int {
		for lo := 0; lo < len(preds); lo += batchSize {
			buf, _ = wire.AppendPredictions(buf[:0], preds[lo:min(lo+batchSize, len(preds))])
			sink.Add(int64(len(buf)))
		}
		return len(preds)
	}))

	// core: the kernel behind each endpoint.
	put("core.predict_ns", "ns", timeCalls(spans, "core.Predict", per, func() int {
		for _, p := range in.params {
			pr, _ := core.Predict(p)
			sink.Add(int64(pr.SpeedupSingle))
		}
		return len(in.params)
	}))
	put("core.predict_multi_ns", "ns", timeCalls(spans, "core.PredictMulti", per, func() int {
		for i, p := range in.params {
			mp, _ := core.PredictMulti(p, core.MultiConfig{Devices: 2 + i%7, Topology: core.SharedChannel})
			sink.Add(int64(mp.SpeedupSingle))
		}
		return len(in.params)
	}))
	out := make([]core.Prediction, batchSize)
	put("core.predict_batch_ns_per_worksheet", "ns", timeCalls(spans, "core.PredictBatch", per, func() int {
		for lo := 0; lo < len(in.params); lo += batchSize {
			hi := min(lo+batchSize, len(in.params))
			if err := core.PredictBatch(in.params[lo:hi], out[:hi-lo]); err == nil {
				sink.Add(int64(out[0].SpeedupSingle))
			}
		}
		return len(in.params)
	}))

	// explore: the engine and the explore handler's JSON edges.
	var evaluated, feasible uint64
	var imbalance []float64
	results := make([]explore.Result, len(in.explores))
	runStart := time.Now()
	for i, ec := range in.explores {
		opts := ec.opts
		opts.CollectSpans = true
		res, err := explore.Run(ec.grid, opts)
		if err != nil {
			return err
		}
		results[i] = res
		evaluated += res.Evaluated
		feasible += res.Feasible
		var sum, worst time.Duration
		for _, sp := range res.Spans {
			sum += sp.Elapsed
			worst = max(worst, sp.Elapsed)
		}
		if len(res.Spans) > 0 && sum > 0 {
			imbalance = append(imbalance, float64(worst)*float64(len(res.Spans))/float64(sum))
		}
	}
	runElapsed := time.Since(runStart)
	spans.add("", 0, "explore.Run", runStart, runElapsed, int64(len(in.explores)))
	put("explore.run_ns_per_candidate", "ns", float64(runElapsed)/float64(evaluated))
	put("explore.feasible_ratio", "ratio", float64(feasible)/float64(evaluated))
	put("explore.candidates", "count", float64(evaluated))
	put("explore.shard_imbalance", "ratio", median(imbalance))

	bodies := make([][]byte, len(in.explores))
	for i, ec := range in.explores {
		b, err := json.Marshal(ec.req)
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	put("explore.request_decode_us", "us", timeCalls(spans, "explore request decode", per, func() int {
		for _, b := range bodies {
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			var req api.ExploreRequest
			if dec.Decode(&req) != nil {
				continue
			}
			g, err := req.Grid()
			if err == nil && g.Validate() == nil {
				sink.Add(int64(g.Size()))
			}
		}
		return len(bodies)
	})/1e3)
	put("explore.response_encode_us", "us", timeCalls(spans, "explore response encode", per, func() int {
		for i, res := range results {
			b, _ := json.Marshal(api.ExploreResponseFromCore(res, in.explores[i].req.Frontier))
			sink.Add(int64(len(b)))
		}
		return len(results)
	})/1e3)
	return nil
}
