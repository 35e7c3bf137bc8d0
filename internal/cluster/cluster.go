// Package cluster shards one design-space exploration across a fleet
// of ratd workers and merges the shard results byte-identically with
// a single-node explore.Run.
//
// The coordinator splits the grid's candidate-index range into
// contiguous shards, dispatches them over the typed client's
// streaming explore endpoint (each shard is an ordinary
// POST /v1/explore with index_lo/index_hi set), and folds the
// completions into a pure merger keyed by shard identity. Real fleet
// behavior is handled in the scheduler, never in the merge: down
// workers are probed via /v1/status until they return, stragglers are
// speculatively re-dispatched after a deadline, failed shards are
// work-stolen onto healthy workers, per-worker in-flight dispatch is
// bounded, and a 429's Retry-After backs one worker off without
// abandoning it. Whatever the fleet does — any worker count, any
// shard size, duplicate completions from re-dispatch — the merged
// result is bit-for-bit the single-node result for the same request.
// See docs/DISTRIBUTED.md.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"github.com/chrec/rat/client"
	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/telemetry"
)

// Worker is one ratd instance as the coordinator sees it. *client.Client
// satisfies it; tests substitute in-process fakes.
type Worker interface {
	// ExploreStream runs one (sharded) exploration, streaming
	// candidate lines to fn and returning the closing summary.
	ExploreStream(ctx context.Context, req api.ExploreRequest, fn func(api.ExploreLine) error) (api.ExploreSummary, error)
	// Status probes liveness; any non-error response marks the worker
	// healthy again.
	Status(ctx context.Context) (api.Status, error)
}

// Remote is one fleet member: a worker plus the name used in stats,
// metrics and error messages (conventionally its base URL).
type Remote struct {
	Name string
	W    Worker
}

// Config shapes a Coordinator.
type Config struct {
	// Workers is the fleet; at least one.
	Workers []Remote
	// ShardSize is the candidate count per shard. 0 derives
	// span/(8*workers) — enough oversubscription that one slow worker
	// cannot stall the run — clamped to [1, 2^20]. Whatever the
	// value, the shard count is capped at 2^20 (shard size grows to
	// compensate), so coordinator bookkeeping stays bounded.
	ShardSize uint64
	// MaxInflight bounds concurrently dispatched shards per worker
	// (default 2), respecting the fleet's admission limits.
	MaxInflight int
	// ShardTimeout is the straggler deadline: a dispatched shard
	// still running after this long is speculatively re-dispatched to
	// another eligible worker (default 30s). The first completion
	// wins; the merger discards the duplicate.
	ShardTimeout time.Duration
	// MaxAttempts is how many times one shard may fully fail (every
	// dispatched copy erroring) before the run is abandoned. Default
	// 3 per worker, minimum 3.
	MaxAttempts int
	// ProbeInterval paces /v1/status probes of down workers (default
	// 500ms); ProbeTimeout bounds one probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Tick is the scheduler's housekeeping cadence — straggler
	// checks, probe scheduling, backoff expiry (default 50ms).
	Tick time.Duration
	// Metrics, when non-nil, receives the coordinator's six
	// rat_cluster_*_total counters. Each shard's time is the worker's
	// own: its rat_request_seconds{endpoint="explore"}.
	Metrics *telemetry.Registry
}

// Stats describes how a distributed run went. None of it affects the
// merged result.
type Stats struct {
	Workers      int
	Shards       int
	Dispatched   int64
	Retried      int64
	Redispatched int64
	Duplicates   int64
	Failures     int64
	// PerWorker follows Config.Workers order.
	PerWorker []WorkerStats
}

// WorkerStats is one worker's share of a run.
type WorkerStats struct {
	Name     string
	Shards   int64
	Failures int64
}

// API converts the stats to their wire form.
func (s Stats) API() api.ClusterStats {
	out := api.ClusterStats{
		Workers:      s.Workers,
		Shards:       s.Shards,
		Dispatched:   s.Dispatched,
		Retried:      s.Retried,
		Redispatched: s.Redispatched,
		Duplicates:   s.Duplicates,
		Failures:     s.Failures,
		PerWorker:    make([]api.WorkerShardStats, 0, len(s.PerWorker)),
	}
	for _, w := range s.PerWorker {
		out.PerWorker = append(out.PerWorker, api.WorkerShardStats{Worker: w.Name, Shards: w.Shards, Failures: w.Failures})
	}
	return out
}

// ErrFleet marks a distributed run that failed because of fleet
// behavior — every worker down, a shard out of attempts, divergent
// shard results — rather than a bad request. Servers map it to 502.
var ErrFleet = errors.New("cluster: fleet failure")

// maxShards bounds coordinator bookkeeping regardless of ShardSize.
const maxShards = 1 << 20

// Coordinator shards explorations across a fleet. Construct with New;
// one Coordinator may run many explorations, concurrently or not.
type Coordinator struct {
	cfg Config

	mDispatched *telemetry.Counter
	mCompleted  *telemetry.Counter
	mRetried    *telemetry.Counter
	mRedisp     *telemetry.Counter
	mDup        *telemetry.Counter
	mFail       *telemetry.Counter
}

// New validates the configuration and applies defaults.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	for i, w := range cfg.Workers {
		if w.W == nil {
			return nil, fmt.Errorf("cluster: worker %d (%q) is nil", i, w.Name)
		}
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = defaultShardTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3 * len(cfg.Workers)
	}
	if cfg.MaxAttempts < 3 {
		cfg.MaxAttempts = 3
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 50 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry() // private sink; keeps the hot paths branch-free
	}
	return &Coordinator{
		cfg:         cfg,
		mDispatched: reg.Counter("rat_cluster_shards_dispatched_total"),
		mCompleted:  reg.Counter("rat_cluster_shards_completed_total"),
		mRetried:    reg.Counter("rat_cluster_shards_retried_total"),
		mRedisp:     reg.Counter("rat_cluster_shards_redispatched_total"),
		mDup:        reg.Counter("rat_cluster_duplicate_completions_total"),
		mFail:       reg.Counter("rat_cluster_worker_failures_total"),
	}, nil
}

// defaultShardTimeout is the straggler deadline when none is set.
const defaultShardTimeout = 30 * time.Second

// Fleet builds one Remote per ratd base URL, the fleet of a ratctl run
// or of a /v1/explore/distributed request. A URL must parse with an
// http or https scheme and a host; anything else wraps
// core.ErrInvalidParameters. Each worker's client retries once (the
// scheduler owns failover: persistent failures go back to it, and it
// work-steals onto the rest of the fleet) and carries key, when set,
// as its API key. Its transport deadline is shardTimeout (default 30s)
// plus 30s: the straggler deadline re-dispatches a slow shard, and the
// transport deadline is the hard stop that frees the in-flight slot
// afterwards.
func Fleet(urls []string, key string, shardTimeout time.Duration) ([]Remote, error) {
	if shardTimeout <= 0 {
		shardTimeout = defaultShardTimeout
	}
	fleet := make([]Remote, 0, len(urls))
	for _, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("%w: worker %q is not an http(s) base URL", core.ErrInvalidParameters, raw)
		}
		opts := []client.Option{
			client.WithRetryPolicy(client.RetryPolicy{MaxRetries: 1, Backoff: 50 * time.Millisecond}),
			client.WithHTTPClient(&http.Client{Timeout: shardTimeout + 30*time.Second}),
		}
		if key != "" {
			opts = append(opts, client.WithAPIKey(key))
		}
		fleet = append(fleet, Remote{Name: raw, W: client.New(raw, opts...)})
	}
	return fleet, nil
}

// shardState tracks one shard through dispatch, failure and
// re-dispatch.
type shardState struct {
	lo, hi   uint64
	inflight int          // dispatched copies still running
	running  map[int]bool // worker index -> has a copy running
	deadline time.Time    // straggler deadline of the newest copy
	attempts int          // full-failure cycles so far
	lastErr  error
	done     bool
}

// workerRT is one worker's scheduler-side runtime state.
type workerRT struct {
	healthy      bool
	inflight     int
	backoffUntil time.Time
	nextProbe    time.Time
	probing      bool
	shards       int64 // completions that won the merge
	failures     int64
}

// completion is one dispatched shard copy's outcome.
type completion struct {
	shard  int
	worker int
	res    ShardResult
	err    error
}

// probeResult is one /v1/status probe's outcome.
type probeResult struct {
	worker int
	err    error
}

// run is the mutable state of one Run call, so a Coordinator can host
// concurrent runs.
type run struct {
	shards  []shardState
	workers []workerRT
	queue   []int // shard ids awaiting (re-)dispatch, FIFO
	stats   Stats
	// stallSince marks when the run last became unable to progress
	// without a successful probe: work queued, nothing in flight, no
	// healthy worker. Zero while the run can progress.
	stallSince time.Time
}

// Run explores a prepared job across the fleet and returns the merged
// result — bit-for-bit what a single node would return for the job's
// request — plus run statistics. Every shard request is job.Request
// with its own index range, and the merge re-derives candidates on
// job.Grid; the job must come from api.ExploreRequest.Prepare, which
// has already validated the request. The context bounds the whole
// run; cancellation abandons in-flight shards.
func (c *Coordinator) Run(ctx context.Context, job api.ExploreJob) (explore.Result, Stats, error) {
	req := job.Request
	lo, span := req.IndexLo, job.Span
	hi := lo + span
	k := job.Options.TopK
	if k <= 0 {
		k = 10
	}

	shardSize := c.shardSize(span)
	st := &run{workers: make([]workerRT, len(c.cfg.Workers))}
	for slo := lo; slo < hi; slo += shardSize {
		shi := slo + shardSize
		if shi > hi {
			shi = hi
		}
		st.shards = append(st.shards, shardState{lo: slo, hi: shi, running: map[int]bool{}})
		st.queue = append(st.queue, len(st.shards)-1)
	}
	for i := range st.workers {
		st.workers[i].healthy = true
	}
	st.stats.Workers = len(st.workers)
	st.stats.Shards = len(st.shards)

	m := newMerger(job.Grid, job.Options.Constraints, job.Options.Objective, k, req.Frontier)
	res, err := c.schedule(ctx, st, m, req, span)
	st.finishStats(c.cfg.Workers)
	if err != nil {
		return explore.Result{}, st.stats, err
	}
	return res, st.stats, nil
}

// schedule is the coordinator's event loop: one goroutine owns all
// scheduler state; dispatched shards and probes report back over
// channels.
func (c *Coordinator) schedule(ctx context.Context, st *run, m *merger, req api.ExploreRequest, span uint64) (explore.Result, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	comp := make(chan completion)
	probes := make(chan probeResult)
	//rat:allow-wallclock the scheduler tick paces straggler checks, probes and backoff expiry; it never touches candidate data
	ticker := time.NewTicker(c.cfg.Tick)
	defer ticker.Stop()

	//rat:allow-wallclock run wall time feeds Result.Elapsed telemetry only, never the merge
	started := time.Now()
	done := 0
	for done < len(st.shards) {
		c.dispatchReady(runCtx, st, req, comp)
		select {
		case e := <-comp:
			d, err := c.onCompletion(st, m, e)
			if err != nil {
				return explore.Result{}, err
			}
			done += d
		case p := <-probes:
			w := &st.workers[p.worker]
			w.probing = false
			if p.err == nil {
				w.healthy = true
			} else {
				//rat:allow-wallclock probe pacing only
				w.nextProbe = time.Now().Add(c.cfg.ProbeInterval)
			}
		case <-ticker.C:
			if err := c.onTick(runCtx, st, req, comp, probes); err != nil {
				return explore.Result{}, err
			}
		case <-ctx.Done():
			return explore.Result{}, fmt.Errorf("cluster: %w (completed %d/%d shards)", ctx.Err(), done, len(st.shards))
		}
	}

	res, err := m.result(span)
	if err != nil {
		return explore.Result{}, fmt.Errorf("%w: %w", ErrFleet, err)
	}
	res.Workers = len(st.workers)
	//rat:allow-wallclock run wall time feeds Result.Elapsed telemetry only, never the merge
	res.Elapsed = time.Since(started)
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.CandidatesPerSec = float64(res.Evaluated) / secs
	}
	return res, nil
}

// dispatchReady drains the queue onto eligible workers until either
// runs out.
func (c *Coordinator) dispatchReady(runCtx context.Context, st *run, req api.ExploreRequest, comp chan<- completion) {
	//rat:allow-wallclock worker backoff expiry check; scheduling only
	now := time.Now()
	for len(st.queue) > 0 {
		si := st.queue[0]
		wi := c.pickWorker(st, si, now)
		if wi < 0 {
			return
		}
		st.queue = st.queue[1:]
		c.dispatch(runCtx, st, si, wi, req, comp, now)
	}
}

// pickWorker returns the eligible worker with the least in-flight
// work for shard si, or -1. Eligible: healthy, below MaxInflight, not
// backing off, not already running this shard.
func (c *Coordinator) pickWorker(st *run, si int, now time.Time) int {
	best := -1
	for i := range st.workers {
		w := &st.workers[i]
		if !w.healthy || w.inflight >= c.cfg.MaxInflight || now.Before(w.backoffUntil) || st.shards[si].running[i] {
			continue
		}
		if best < 0 || w.inflight < st.workers[best].inflight {
			best = i
		}
	}
	return best
}

// dispatch launches one copy of shard si on worker wi.
func (c *Coordinator) dispatch(runCtx context.Context, st *run, si, wi int, req api.ExploreRequest, comp chan<- completion, now time.Time) {
	sh := &st.shards[si]
	sh.inflight++
	sh.running[wi] = true
	sh.deadline = now.Add(c.cfg.ShardTimeout)
	st.workers[wi].inflight++
	st.stats.Dispatched++
	c.mDispatched.Inc()

	sreq := req
	sreq.IndexLo, sreq.IndexHi = sh.lo, sh.hi
	w := c.cfg.Workers[wi].W
	go func() {
		var top, front []uint64
		sum, err := w.ExploreStream(runCtx, sreq, func(line api.ExploreLine) error {
			if line.Candidate == nil {
				return nil
			}
			switch line.Kind {
			case "top":
				top = append(top, line.Candidate.Index)
			case "frontier":
				front = append(front, line.Candidate.Index)
			}
			return nil
		})
		e := completion{shard: si, worker: wi, err: err}
		if err == nil {
			e.res = ShardResult{
				Lo: sreq.IndexLo, Hi: sreq.IndexHi,
				Evaluated: sum.Evaluated, Feasible: sum.Feasible,
				Top: top, Frontier: front,
			}
		}
		select {
		case comp <- e:
		case <-runCtx.Done():
		}
	}()
}

// onCompletion folds one shard copy's outcome into the scheduler and
// the merger. It returns how many shards newly completed (0 or 1); a
// non-nil error aborts the run.
func (c *Coordinator) onCompletion(st *run, m *merger, e completion) (int, error) {
	sh := &st.shards[e.shard]
	w := &st.workers[e.worker]
	sh.inflight--
	delete(sh.running, e.worker)
	w.inflight--

	if e.err != nil {
		sh.lastErr = e.err
		w.failures++
		st.stats.Failures++
		c.mFail.Inc()
		c.noteWorkerError(st, e.worker, e.err)
		if sh.done || sh.inflight > 0 {
			return 0, nil // another copy is still running or already won
		}
		sh.attempts++
		if sh.attempts >= c.cfg.MaxAttempts {
			return 0, fmt.Errorf("%w: shard [%d,%d) failed after %d attempts: %w",
				ErrFleet, sh.lo, sh.hi, sh.attempts, sh.lastErr)
		}
		st.queue = append(st.queue, e.shard)
		st.stats.Retried++
		c.mRetried.Inc()
		return 0, nil
	}

	if sh.done {
		st.stats.Duplicates++
		c.mDup.Inc()
		return 0, nil
	}
	if e.res.Evaluated != sh.hi-sh.lo {
		return 0, fmt.Errorf("%w: worker %s evaluated %d candidates for shard [%d,%d), want %d",
			ErrFleet, c.cfg.Workers[e.worker].Name, e.res.Evaluated, sh.lo, sh.hi, sh.hi-sh.lo)
	}
	if !m.add(e.res) {
		// Unreachable while shards partition the range; kept as a
		// belt-and-braces guard on the dedupe invariant.
		st.stats.Duplicates++
		c.mDup.Inc()
		return 0, nil
	}
	sh.done = true
	w.shards++
	c.mCompleted.Inc()
	return 1, nil
}

// noteWorkerError classifies a dispatch failure. An HTTP-level error
// means the worker is alive: a 429 backs it off by the server's own
// Retry-After hint, other temporary statuses by one probe interval.
// Anything else (transport error, timeout) marks the worker down
// until a /v1/status probe succeeds.
func (c *Coordinator) noteWorkerError(st *run, wi int, err error) {
	w := &st.workers[wi]
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		if d, ok := client.RetryAfter(err); ok {
			//rat:allow-wallclock admission backoff scheduling only
			w.backoffUntil = time.Now().Add(d)
		} else if apiErr.Temporary() {
			//rat:allow-wallclock admission backoff scheduling only
			w.backoffUntil = time.Now().Add(c.cfg.ProbeInterval)
		}
		return
	}
	if errors.Is(err, context.Canceled) {
		return // the run is being torn down; not the worker's fault
	}
	w.healthy = false
	//rat:allow-wallclock probe pacing only
	w.nextProbe = time.Now().Add(c.cfg.ProbeInterval)
}

// onTick runs the scheduler's housekeeping: speculative re-dispatch
// of stragglers, /v1/status probes of down workers, and the fleet
// liveness bound. A non-nil error aborts the run.
func (c *Coordinator) onTick(runCtx context.Context, st *run, req api.ExploreRequest, comp chan<- completion, probes chan<- probeResult) error {
	//rat:allow-wallclock straggler deadlines and probe cadence; scheduling only
	now := time.Now()
	for si := range st.shards {
		sh := &st.shards[si]
		if sh.done || sh.inflight == 0 || now.Before(sh.deadline) {
			continue
		}
		wi := c.pickWorker(st, si, now)
		if wi < 0 {
			continue
		}
		c.dispatch(runCtx, st, si, wi, req, comp, now)
		st.stats.Redispatched++
		c.mRedisp.Inc()
	}
	for wi := range st.workers {
		w := &st.workers[wi]
		if w.healthy || w.probing || now.Before(w.nextProbe) {
			continue
		}
		w.probing = true
		worker := c.cfg.Workers[wi].W
		go func(wi int) {
			pctx, cancel := context.WithTimeout(runCtx, c.cfg.ProbeTimeout)
			defer cancel()
			_, err := worker.Status(pctx)
			select {
			case probes <- probeResult{worker: wi, err: err}:
			case <-runCtx.Done():
			}
		}(wi)
	}

	// Liveness: with work queued, nothing in flight and every worker
	// down, only a successful probe can move the run forward. Wait one
	// ShardTimeout for the fleet to come back, then fail rather than
	// probe forever.
	if c.stalled(st) {
		if st.stallSince.IsZero() {
			st.stallSince = now
		} else if now.Sub(st.stallSince) >= c.cfg.ShardTimeout {
			return fmt.Errorf("%w: no healthy workers for %v (%d of %d shards unfinished): %w",
				ErrFleet, c.cfg.ShardTimeout, len(st.queue), len(st.shards), st.lastQueuedErr())
		}
	} else {
		st.stallSince = time.Time{}
	}
	return nil
}

// stalled reports whether the run cannot progress without a probe
// succeeding: shards queued, no copies in flight, no healthy worker.
func (c *Coordinator) stalled(st *run) bool {
	if len(st.queue) == 0 {
		return false
	}
	for i := range st.workers {
		if st.workers[i].healthy || st.workers[i].inflight > 0 {
			return false
		}
	}
	return true
}

// lastQueuedErr surfaces the most recent failure among queued shards,
// so the stall error says why the fleet went down.
func (st *run) lastQueuedErr() error {
	for i := len(st.queue) - 1; i >= 0; i-- {
		if err := st.shards[st.queue[i]].lastErr; err != nil {
			return err
		}
	}
	return errors.New("no shard ever completed")
}

// shardSize resolves the configured or derived shard size for a span.
func (c *Coordinator) shardSize(span uint64) uint64 {
	s := c.cfg.ShardSize
	if s == 0 {
		s = span / (8 * uint64(len(c.cfg.Workers)))
		if s > 1<<20 {
			s = 1 << 20
		}
	}
	if s < 1 {
		s = 1
	}
	// Bound the shard count whatever was asked for.
	if span/s >= maxShards {
		s = (span + maxShards - 1) / maxShards
	}
	return s
}

// finishStats snapshots per-worker stats in fleet order.
func (st *run) finishStats(workers []Remote) {
	st.stats.PerWorker = make([]WorkerStats, len(workers))
	for i, w := range workers {
		st.stats.PerWorker[i] = WorkerStats{Name: w.Name, Shards: st.workers[i].shards, Failures: st.workers[i].failures}
	}
}
