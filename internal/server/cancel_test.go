package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/telemetry"
)

// exploreWorkers counts the goroutines running an explore worker, from
// their stacks: each running engine has one per engine worker, up to
// the server's derived count.
func exploreWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("internal/explore.(*workerState)")) {
			n++
		}
	}
	return n
}

// awaitNoExploreWorkers polls until no explore worker runs and returns
// how long that took; it gives up after limit. runtime.Stack stops the
// world, so it polls every few milliseconds, not continuously.
func awaitNoExploreWorkers(t *testing.T, limit time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for exploreWorkers() > 0 {
		if time.Since(start) > limit {
			t.Fatalf("%d explore workers still running %v later", exploreWorkers(), limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return time.Since(start)
}

// longestShard is the longest engine shard the registry has timed:
// the max of rat_explore_shard_seconds.
func longestShard(reg *telemetry.Registry) time.Duration {
	secs := reg.Snapshot().Histograms["rat_explore_shard_seconds"].Max
	return time.Duration(secs * float64(time.Second))
}

// shardSlack absorbs scheduling delay between a shard's end and the
// worker's return on a loaded host.
const shardSlack = 100 * time.Millisecond

// TestAbandonedExploresStopEngines is the orphaned-engine regression
// test: 16 slow explorations sent 40 ms apart, each abandoned by its
// client after 30 ms. Once every client has given up, no more than
// ExploreLimit engines may run, because a handler holds its admission
// slot until its engine returns, so no more than ExploreLimit x the
// derived worker count engine goroutines; and every engine stops
// within one shard, because the engine checks the request context at
// each shard boundary.
func TestAbandonedExploresStopEngines(t *testing.T) {
	awaitNoExploreWorkers(t, 30*time.Second) // engines left by earlier tests
	srv := New(Config{})
	reg := srv.Metrics()
	limit := srv.cfg.ExploreLimit * srv.exploreWorkers
	url, _ := startServer(t, srv)
	defer srv.Shutdown(context.Background())
	body := slowExploreBody(t)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/explore", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close() // answered in time, most likely 429
			}
		}()
		time.Sleep(40 * time.Millisecond)
	}
	wg.Wait()

	if n := exploreWorkers(); n > limit {
		t.Errorf("%d engine workers still running once every client gave up, want at most ExploreLimit x %d = %d",
			n, srv.exploreWorkers, limit)
	}
	took := awaitNoExploreWorkers(t, 30*time.Second)
	shard := longestShard(reg)
	if took > shard+shardSlack {
		t.Errorf("engines ran on %v after the last client gave up; the longest shard took %v", took, shard)
	}
	t.Logf("engines stopped %v after the last client gave up; longest shard %v", took, shard)
}

// TestCancelledDistributedExploreStops: a client that abandons a
// /v1/explore/distributed request stops the coordinator from
// dispatching more shards, and the worker's engines for the shards in
// flight stop within one engine shard.
func TestCancelledDistributedExploreStops(t *testing.T) {
	awaitNoExploreWorkers(t, 30*time.Second)
	// One engine worker per explore, whatever the CPU count.
	worker := New(Config{ExploreLimit: runtime.GOMAXPROCS(0)})
	workerReg := worker.Metrics()
	workerURL, _ := startServer(t, worker)
	defer worker.Shutdown(context.Background())
	coord := New(Config{})
	coordReg := coord.Metrics()
	coordURL, _ := startServer(t, coord)
	defer coord.Shutdown(context.Background())

	var explore api.ExploreRequest
	if err := json.Unmarshal(slowExploreBody(t), &explore); err != nil {
		t.Fatal(err)
	}
	// Two shards dispatched one at a time: each is a worker request
	// of four engine shards.
	const shards = 2
	body, err := json.Marshal(api.DistributedExploreRequest{
		Explore:     explore,
		Workers:     []string{workerURL},
		ShardSize:   221184 / shards,
		MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordURL+"/v1/explore/distributed", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Errorf("distributed explore answered %d before it was abandoned", resp.StatusCode)
		}
	}()
	dispatched := func() int64 { return coordReg.Snapshot().Counters["rat_cluster_shards_dispatched_total"] }
	deadline := time.Now().Add(30 * time.Second)
	for exploreWorkers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the worker never started an engine")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	cancelled := time.Now()
	<-done

	// The coordinator's handler returns once its run is cancelled.
	for coordReg.Snapshot().Gauges[`rat_inflight{endpoint="explore"}`] > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the coordinator never returned from the abandoned request")
		}
		time.Sleep(time.Millisecond)
	}
	atCancel := dispatched()
	awaitNoExploreWorkers(t, 30*time.Second)
	took := time.Since(cancelled)
	shard := longestShard(workerReg)
	if took > shard+shardSlack {
		t.Errorf("worker engines ran on %v after the client gave up; the longest shard took %v", took, shard)
	}
	t.Logf("worker engines stopped %v after the client gave up; longest shard %v; %d of %d shards dispatched",
		took, shard, atCancel, shards)
	if after := dispatched(); after != atCancel || atCancel >= shards {
		t.Errorf("coordinator dispatched %d shards by the cancellation and %d after it, of %d; want no more after, and fewer than all",
			atCancel, after, shards)
	}
}
