package cluster_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/chrec/rat/client"
	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/cluster"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

// testRequest is the 144-candidate wire request the tests shard: the
// explore package's fixture grid in its API form.
func testRequest() api.ExploreRequest {
	return api.ExploreRequest{
		Worksheet:       worksheet.DocFromParams(paper.PDF1DParams()),
		ClocksMHz:       []float64{75, 100, 150},
		ThroughputProcs: []float64{10, 20, 40},
		Alphas:          []float64{0.16, 0.37},
		BlockSizes:      []int64{512, 2048},
		Devices:         []int{1, 4},
		Topology:        "independent",
		Objective:       "max-speedup",
		TopK:            10,
		Frontier:        true,
	}
}

// singleNode computes the reference result the distributed run must
// reproduce exactly.
func singleNode(t *testing.T, req api.ExploreRequest) explore.Result {
	t.Helper()
	g, err := req.Grid()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := req.Options(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := explore.Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// prepare makes req the job a coordinator runs.
func prepare(t *testing.T, req api.ExploreRequest) api.ExploreJob {
	t.Helper()
	job, err := req.Prepare(0)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// localWorker is an in-process Worker: it behaves exactly like a
// remote ratd — evaluating the requested index range and streaming
// candidate lines in wire form — without a network in between.
type localWorker struct{}

func (localWorker) ExploreStream(ctx context.Context, req api.ExploreRequest, fn func(api.ExploreLine) error) (api.ExploreSummary, error) {
	if err := ctx.Err(); err != nil {
		return api.ExploreSummary{}, err
	}
	g, err := req.Grid()
	if err != nil {
		return api.ExploreSummary{}, err
	}
	opts, err := req.Options(1)
	if err != nil {
		return api.ExploreSummary{}, err
	}
	res, err := explore.Run(g, opts)
	if err != nil {
		return api.ExploreSummary{}, err
	}
	for _, c := range res.Top {
		wc := api.CandidateFromCore(c)
		if err := fn(api.ExploreLine{Kind: "top", Candidate: &wc}); err != nil {
			return api.ExploreSummary{}, err
		}
	}
	if req.Frontier {
		for _, c := range res.Frontier {
			wc := api.CandidateFromCore(c)
			if err := fn(api.ExploreLine{Kind: "frontier", Candidate: &wc}); err != nil {
				return api.ExploreSummary{}, err
			}
		}
	}
	return api.ExploreSummary{Evaluated: res.Evaluated, Feasible: res.Feasible}, nil
}

func (localWorker) Status(ctx context.Context) (api.Status, error) {
	return api.Status{}, nil
}

// dyingWorker serves healthyCalls shards, then fails every explore
// and every probe — a worker killed mid-run and never coming back.
type dyingWorker struct {
	inner        cluster.Worker
	healthyCalls int

	mu    sync.Mutex
	calls int
}

func (w *dyingWorker) dead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.calls >= w.healthyCalls
}

func (w *dyingWorker) ExploreStream(ctx context.Context, req api.ExploreRequest, fn func(api.ExploreLine) error) (api.ExploreSummary, error) {
	w.mu.Lock()
	dead := w.calls >= w.healthyCalls
	if !dead {
		w.calls++
	}
	w.mu.Unlock()
	if dead {
		return api.ExploreSummary{}, errors.New("dial tcp: connection refused")
	}
	return w.inner.ExploreStream(ctx, req, fn)
}

func (w *dyingWorker) Status(ctx context.Context) (api.Status, error) {
	if w.dead() {
		return api.Status{}, errors.New("dial tcp: connection refused")
	}
	return api.Status{}, nil
}

// busyWorker answers its first overloaded calls with a 429 and a
// Retry-After hint, like a ratd shedding load, then recovers.
type busyWorker struct {
	inner      cluster.Worker
	overloaded int

	mu    sync.Mutex
	calls int
}

func (w *busyWorker) ExploreStream(ctx context.Context, req api.ExploreRequest, fn func(api.ExploreLine) error) (api.ExploreSummary, error) {
	w.mu.Lock()
	w.calls++
	busy := w.calls <= w.overloaded
	w.mu.Unlock()
	if busy {
		return api.ExploreSummary{}, &client.APIError{
			StatusCode: 429, Message: "too busy", RetryAfter: 10 * time.Millisecond,
		}
	}
	return w.inner.ExploreStream(ctx, req, fn)
}

func (w *busyWorker) Status(ctx context.Context) (api.Status, error) {
	return api.Status{}, nil
}

// slowWorker delays each shard before delegating, keeping a run
// alive long enough for timing-driven scheduler paths (backoff
// expiry, straggler deadlines) to engage.
type slowWorker struct {
	inner cluster.Worker
	delay time.Duration
}

func (w slowWorker) ExploreStream(ctx context.Context, req api.ExploreRequest, fn func(api.ExploreLine) error) (api.ExploreSummary, error) {
	select {
	case <-time.After(w.delay):
	case <-ctx.Done():
		return api.ExploreSummary{}, ctx.Err()
	}
	return w.inner.ExploreStream(ctx, req, fn)
}

func (w slowWorker) Status(ctx context.Context) (api.Status, error) {
	return w.inner.Status(ctx)
}

// hangingWorker never answers: every dispatched shard blocks until
// the coordinator gives up on it. The straggler path's worst case.
type hangingWorker struct{}

func (hangingWorker) ExploreStream(ctx context.Context, req api.ExploreRequest, fn func(api.ExploreLine) error) (api.ExploreSummary, error) {
	<-ctx.Done()
	return api.ExploreSummary{}, ctx.Err()
}

func (hangingWorker) Status(ctx context.Context) (api.Status, error) {
	return api.Status{}, nil
}

// fastConfig keeps scheduler timing test-sized.
func fastConfig(workers ...cluster.Remote) cluster.Config {
	return cluster.Config{
		Workers:       workers,
		ShardSize:     7, // 21 ragged shards over 144 candidates
		MaxInflight:   4,
		ShardTimeout:  200 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  100 * time.Millisecond,
		Tick:          5 * time.Millisecond,
	}
}

// assertSameResult compares the distributed result to the single-node
// reference on everything the determinism contract covers. Elapsed,
// Workers and CandidatesPerSec are run-shaped telemetry, not results.
func assertSameResult(t *testing.T, got, want explore.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Top, want.Top) {
		t.Errorf("distributed top diverges from single-node:\n got  %+v\n want %+v", got.Top, want.Top)
	}
	if !reflect.DeepEqual(got.Frontier, want.Frontier) {
		t.Errorf("distributed frontier diverges from single-node:\n got  %+v\n want %+v", got.Frontier, want.Frontier)
	}
	if got.Evaluated != want.Evaluated || got.Feasible != want.Feasible {
		t.Errorf("distributed counts (%d, %d), want (%d, %d)",
			got.Evaluated, got.Feasible, want.Evaluated, want.Feasible)
	}
}

// TestRunMatchesSingleNode: 1, 2 and 4 healthy workers all reproduce
// the single-node result exactly, at several shard sizes.
func TestRunMatchesSingleNode(t *testing.T) {
	req := testRequest()
	want := singleNode(t, req)
	for _, n := range []int{1, 2, 4} {
		for _, shardSize := range []uint64{0, 1, 7, 50, 1000} {
			var remotes []cluster.Remote
			for i := 0; i < n; i++ {
				remotes = append(remotes, cluster.Remote{Name: "w", W: localWorker{}})
			}
			cfg := fastConfig(remotes...)
			cfg.ShardSize = shardSize
			coord, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, stats, err := coord.Run(context.Background(), prepare(t, req))
			if err != nil {
				t.Fatalf("workers=%d shardSize=%d: %v", n, shardSize, err)
			}
			assertSameResult(t, res, want)
			if stats.Workers != n {
				t.Errorf("stats.Workers = %d, want %d", stats.Workers, n)
			}
			if stats.Dispatched < int64(stats.Shards) {
				t.Errorf("dispatched %d shards of %d", stats.Dispatched, stats.Shards)
			}
		}
	}
}

// TestRunWorkerDiesMidRun: one of two workers dies after a few shards
// and never returns; its lost shards are retried onto the survivor
// and the result still matches single-node bit for bit.
func TestRunWorkerDiesMidRun(t *testing.T) {
	req := testRequest()
	want := singleNode(t, req)
	dying := &dyingWorker{inner: localWorker{}, healthyCalls: 3}
	coord, err := cluster.New(fastConfig(
		cluster.Remote{Name: "healthy", W: localWorker{}},
		cluster.Remote{Name: "dying", W: dying},
	))
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := coord.Run(context.Background(), prepare(t, req))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, want)
	if stats.Failures == 0 || stats.Retried == 0 {
		t.Errorf("stats = %+v, want failures and retries from the dying worker", stats)
	}
	if stats.PerWorker[1].Failures == 0 {
		t.Errorf("per-worker stats %+v missed the dying worker's failures", stats.PerWorker)
	}
}

// TestRunBackpressure: a worker that sheds its first calls with 429 +
// Retry-After is backed off, not declared dead, and the run completes
// identically.
func TestRunBackpressure(t *testing.T) {
	req := testRequest()
	want := singleNode(t, req)
	// The calm worker is slowed so the run outlives the busy worker's
	// Retry-After window — otherwise backoff recovery never engages.
	busy := &busyWorker{inner: localWorker{}, overloaded: 4}
	cfg := fastConfig(
		cluster.Remote{Name: "calm", W: slowWorker{inner: localWorker{}, delay: 10 * time.Millisecond}},
		cluster.Remote{Name: "busy", W: busy},
	)
	cfg.MaxAttempts = 100 // the 429 bursts must not exhaust a shard's budget
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := coord.Run(context.Background(), prepare(t, req))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, want)
	if stats.Failures == 0 {
		t.Errorf("stats = %+v, want 429s counted as failures", stats)
	}
	if stats.PerWorker[1].Shards == 0 {
		t.Errorf("per-worker stats %+v: the busy worker never recovered", stats.PerWorker)
	}
}

// TestRunStragglerRedispatch: a worker that hangs forever triggers
// deadline-based speculative re-dispatch; the run completes on the
// healthy worker with the exact single-node result.
func TestRunStragglerRedispatch(t *testing.T) {
	req := testRequest()
	want := singleNode(t, req)
	cfg := fastConfig(
		cluster.Remote{Name: "healthy", W: localWorker{}},
		cluster.Remote{Name: "hung", W: hangingWorker{}},
	)
	cfg.ShardTimeout = 50 * time.Millisecond
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, stats, err := coord.Run(ctx, prepare(t, req))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, want)
	if stats.Redispatched == 0 {
		t.Errorf("stats = %+v, want speculative re-dispatches of the hung worker's shards", stats)
	}
}

// TestRunFleetFailure: when every worker is down, the run fails with
// ErrFleet instead of hanging or returning a partial result.
func TestRunFleetFailure(t *testing.T) {
	req := testRequest()
	dead := &dyingWorker{inner: localWorker{}, healthyCalls: 0}
	cfg := fastConfig(cluster.Remote{Name: "dead", W: dead})
	cfg.MaxAttempts = 2
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = coord.Run(context.Background(), prepare(t, req))
	if !errors.Is(err, cluster.ErrFleet) {
		t.Fatalf("Run with a dead fleet = %v, want ErrFleet", err)
	}
}

// TestRunInvalidRange: a bad index range is a caller error (wrapped
// ErrInvalidParameters), rejected before any dispatch. Run takes only
// a prepared job, so the rejection is Prepare's: an out-of-range
// request never becomes a job a coordinator could shard. A range that
// ends exactly at the grid's last candidate is still in range and is
// sharded to its end.
func TestRunInvalidRange(t *testing.T) {
	req := testRequest()
	req.IndexLo, req.IndexHi = 10, 100000
	if _, err := req.Prepare(0); !errors.Is(err, core.ErrInvalidParameters) {
		t.Fatalf("Prepare with out-of-range shard = %v, want ErrInvalidParameters", err)
	}

	req.IndexHi = 144
	coord, err := cluster.New(fastConfig(cluster.Remote{Name: "w", W: localWorker{}}))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := coord.Run(context.Background(), prepare(t, req))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, singleNode(t, req))
	if res.Evaluated != 134 {
		t.Errorf("Evaluated = %d, want the 134 candidates of [10, 144)", res.Evaluated)
	}
}

// TestRunContextCancel: cancelling the run context aborts promptly
// with the context error.
func TestRunContextCancel(t *testing.T) {
	coord, err := cluster.New(fastConfig(cluster.Remote{Name: "hung", W: hangingWorker{}}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := coord.Run(ctx, prepare(t, testRequest())); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with cancelled context = %v, want context.Canceled", err)
	}
}

// TestRunPartialRange: a request already carrying an index range is
// sharded within that range only, matching a single-node run of the
// same slice.
func TestRunPartialRange(t *testing.T) {
	req := testRequest()
	req.IndexLo, req.IndexHi = 16, 100
	want := singleNode(t, req)
	coord, err := cluster.New(fastConfig(
		cluster.Remote{Name: "a", W: localWorker{}},
		cluster.Remote{Name: "b", W: localWorker{}},
	))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := coord.Run(context.Background(), prepare(t, req))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, want)
	if res.Evaluated != 84 {
		t.Errorf("Evaluated = %d, want the 84-candidate slice", res.Evaluated)
	}
}
