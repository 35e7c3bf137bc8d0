package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/telemetry"
)

// TestSemaphoreFIFO covers the admission semaphore directly: capacity
// enforcement, FIFO wakeup, and the cancellation race.
func TestSemaphoreFIFO(t *testing.T) {
	a := newAdmission(telemetry.NewRegistry(), "predict", 2, time.Hour)
	ctx := context.Background()
	if n, ok := a.admit(ctx, 2); !ok || n != 2 {
		t.Fatalf("admit(2) on an idle semaphore = %d, %v", n, ok)
	}
	noWait := newAdmission(telemetry.NewRegistry(), "predict", 2, 0)
	noWait.admit(ctx, 2)
	if _, ok := noWait.admit(ctx, 1); ok {
		t.Fatal("admit over the limit succeeded")
	}

	acquired := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			if _, ok := a.admit(ctx, 1); ok {
				acquired <- i
			}
		}(i)
	}
	waitQueued(t, a, 2)
	a.release(2)
	for i := 0; i < 2; i++ {
		select {
		case <-acquired:
		case <-time.After(5 * time.Second):
			t.Fatal("queued waiter never woke")
		}
	}

	// A cancelled waiter must not consume capacity.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, ok := a.admit(cancelled, 2); ok {
		t.Fatal("admit with cancelled context succeeded while full")
	}
	a.release(2)
	if n, ok := a.admit(ctx, 2); !ok || n != 2 {
		t.Fatal("capacity lost after cancelled waiter")
	}

	// A waiter granted while its context ends keeps the grant: the
	// release below runs under the lock the cancelled waiter needs to
	// withdraw, so it always sees itself granted.
	waitCtx, cancel := context.WithCancel(ctx)
	granted := make(chan bool, 1)
	go func() {
		_, ok := a.admit(waitCtx, 2)
		granted <- ok
	}()
	waitQueued(t, a, 1)
	a.mu.Lock()
	cancel()
	a.cur -= 2
	a.notifyLocked()
	a.mu.Unlock()
	if !<-granted {
		t.Fatal("a waiter granted as its context ended gave the grant up")
	}
	a.release(2)
	if a.cur != 0 {
		t.Fatalf("holdings after every release = %d, want 0", a.cur)
	}
}

// waitQueued polls until a has n queued waiters.
func waitQueued(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.mu.Lock()
		got := a.waiters.Len()
		a.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued waiters = %d, want %d", got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestAdmissionEndpointsIndependent pins that one endpoint's queue
// never holds back another's: with every endpoint full at the default
// limits, a batch queued on its own limit must not stop a freed
// explore slot from reaching the explore queued before it. Waiters
// are given time to queue rather than polled for, so the test reads
// only admit and release; a waiter that has not queued yet when the
// slot frees is admitted directly, which can only make the test pass.
func TestAdmissionEndpointsIndependent(t *testing.T) {
	srv := New(Config{AdmissionWait: time.Second})
	ctx := context.Background()
	hold := func(a *admission, n int64) {
		if got, ok := a.admit(ctx, n); !ok || got != n {
			t.Fatalf("admit(%d) = %d, %v on a free endpoint", n, got, ok)
		}
	}
	for i := 0; i < 64; i++ {
		hold(srv.admPredict, 1)
	}
	hold(srv.admBatch, 10)
	hold(srv.admExplore, 1)
	hold(srv.admExplore, 1)

	explore := make(chan bool, 1)
	go func() {
		_, ok := srv.admExplore.admit(ctx, 1)
		explore <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	batch := make(chan bool, 1)
	go func() {
		_, ok := srv.admBatch.admit(ctx, 8) // 10 + 8 > 16: queues
		batch <- ok
	}()
	time.Sleep(20 * time.Millisecond)

	srv.admExplore.release(1)
	select {
	case ok := <-explore:
		if !ok {
			t.Fatal("queued explore rejected after an explore slot freed")
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("queued explore still waiting 500ms after an explore slot freed")
	}

	srv.admBatch.release(10)
	if !<-batch {
		t.Fatal("queued batch rejected after the batch endpoint freed")
	}
	srv.admBatch.release(8)
	srv.admExplore.release(2)
	for i := 0; i < 64; i++ {
		srv.admPredict.release(1)
	}
}

// TestEveryEndpointShedsAlike holds each API endpoint's semaphore
// full and sends it one well-formed request: every endpoint answers
// 429 with Retry-After: 1 and the same message naming its path, and
// counts the refusal on its own server.rejected counter.
func TestEveryEndpointShedsAlike(t *testing.T) {
	ws := encodeWorksheet(t, paper.PDF1DParams())
	exploreBody, err := json.Marshal(map[string]any{
		"worksheet":  json.RawMessage(ws),
		"clocks_mhz": []float64{50, 100, 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	distBody, err := json.Marshal(distExploreRequest([]string{"http://127.0.0.1:1"}))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	for _, tc := range []struct {
		path, endpoint string
		adm            *admission
		body           []byte
	}{
		{"/v1/predict", "predict", srv.admPredict, ws},
		{"/v1/predict/batch", "batch", srv.admBatch, append(append([]byte("["), ws...), ']')},
		{"/v1/explore", "explore", srv.admExplore, exploreBody},
		{"/v1/explore/distributed", "explore", srv.admExplore, distBody},
	} {
		held, ok := tc.adm.admit(context.Background(), tc.adm.limit)
		if !ok {
			t.Fatalf("%s: could not hold its free semaphore", tc.path)
		}
		rejected := srv.Metrics().Counter("server.rejected." + tc.endpoint)
		before := rejected.Value()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body)))
		tc.adm.release(held)

		if rec.Code != http.StatusTooManyRequests {
			t.Errorf("%s: status %d, want 429: %s", tc.path, rec.Code, rec.Body.String())
			continue
		}
		if got := rec.Header().Get("Retry-After"); got != "1" {
			t.Errorf("%s: Retry-After %q, want \"1\"", tc.path, got)
		}
		var e api.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: error body does not parse: %v", tc.path, err)
		}
		if want := tc.path + " is at its concurrency limit; retry after backoff"; e.Error != want {
			t.Errorf("%s: message %q, want %q", tc.path, e.Error, want)
		}
		if got := rejected.Value() - before; got != 1 {
			t.Errorf("%s: server.rejected.%s went up by %d, want 1", tc.path, tc.endpoint, got)
		}
	}
}

// admReq is one request in TestAdmissionModel: its clamped weight,
// how to cancel it, and where its admit reports.
type admReq struct {
	n      int64
	cancel context.CancelFunc
	done   chan bool
}

// TestAdmissionModel checks admission against a model weighted FIFO
// semaphore over random admit, release and cancel steps: random
// limits and weights (clamped as admit clamps them), cancellation of
// queued waiters, and, on every third seed, a wait bound short enough
// that each waiter the model queues expires before the next step.
// After every step the real semaphore must settle to the model's
// holdings, queue, outcomes and counters.
func TestAdmissionModel(t *testing.T) {
	const seeds, steps = 300, 200
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limit := 1 + rng.Int63n(4)
		wait, expires := time.Hour, seed%3 == 0
		if expires {
			wait = 20 * time.Microsecond
		}
		reg := telemetry.NewRegistry()
		a := newAdmission(reg, "predict", limit, wait)

		// The model: holdings, the queue in arrival order, and what each
		// settled request must have reported.
		var cur, peak, admitted, rejected int64
		var queue, held []*admReq
		var pending []*admReq // granted or rejected, report not yet read
		var pendingOK []bool
		grant := func() {
			for len(queue) > 0 && cur+queue[0].n <= limit {
				r := queue[0]
				queue = queue[1:]
				cur += r.n
				peak = max(peak, cur)
				admitted++
				held = append(held, r)
				pending, pendingOK = append(pending, r), append(pendingOK, true)
			}
		}

		for step := 0; step < steps; step++ {
			switch op := rng.Intn(3); {
			case op == 0 || len(held) == 0 && len(queue) == 0:
				weight := rng.Int63n(limit + 2) // 0 and limit+1 exercise the clamp
				r := &admReq{n: min(max(weight, 1), limit), done: make(chan bool, 1)}
				ctx, cancel := context.WithCancel(context.Background())
				r.cancel = cancel
				go func() {
					_, ok := a.admit(ctx, weight)
					r.done <- ok
				}()
				switch {
				case len(queue) == 0 && cur+r.n <= limit:
					queue = append(queue, r)
					grant()
				case expires:
					rejected++
					pending, pendingOK = append(pending, r), append(pendingOK, false)
				default:
					queue = append(queue, r)
				}
			case op == 1 && len(held) > 0:
				i := rng.Intn(len(held))
				r := held[i]
				held = append(held[:i], held[i+1:]...)
				cur -= r.n
				a.release(r.n)
				r.cancel()
				grant()
			case len(queue) > 0:
				i := rng.Intn(len(queue))
				r := queue[i]
				queue = append(queue[:i], queue[i+1:]...)
				r.cancel()
				rejected++
				pending, pendingOK = append(pending, r), append(pendingOK, false)
				grant()
			default:
				continue
			}

			for i, r := range pending {
				select {
				case ok := <-r.done:
					if ok != pendingOK[i] {
						t.Fatalf("seed %d step %d: admit reported %v, model says %v", seed, step, ok, pendingOK[i])
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("seed %d step %d: a settled request never reported (model says %v)", seed, step, pendingOK[i])
				}
			}
			pending, pendingOK = pending[:0], pendingOK[:0]
			settle(t, a, seed, step, cur, queue)
			snap := reg.Snapshot()
			if snap.Counters["server.admitted.predict"] != admitted || snap.Counters["server.rejected.predict"] != rejected {
				t.Fatalf("seed %d step %d: admitted/rejected = %d/%d, model %d/%d", seed, step,
					snap.Counters["server.admitted.predict"], snap.Counters["server.rejected.predict"], admitted, rejected)
			}
			inflight, peakG := snap.Gauges[`rat_inflight{endpoint="predict"}`], snap.Gauges[`rat_inflight_peak{endpoint="predict"}`]
			if inflight != float64(cur) || peakG != float64(peak) {
				t.Fatalf("seed %d step %d: inflight/peak gauges = %v/%v, model %d/%d", seed, step,
					inflight, peakG, cur, peak)
			}
		}
		for _, r := range queue {
			r.cancel()
			<-r.done
		}
		for _, r := range held {
			r.cancel()
		}
	}
}

// settle polls a, under its lock, until its holdings and queued
// weights match the model's.
func settle(t *testing.T, a *admission, seed int64, step int, cur int64, queue []*admReq) {
	t.Helper()
	matches := func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.cur != cur || a.waiters.Len() != len(queue) {
			return false
		}
		i := 0
		for e := a.waiters.Front(); e != nil; e = e.Next() {
			if e.Value.(*waiter).n != queue[i].n {
				return false
			}
			i++
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for !matches() {
		if time.Now().After(deadline) {
			a.mu.Lock()
			got, queued := a.cur, a.waiters.Len()
			a.mu.Unlock()
			t.Fatalf("seed %d step %d: holdings/queue = %d/%d, model %d/%d", seed, step, got, queued, cur, len(queue))
		}
		runtime.Gosched()
	}
}
