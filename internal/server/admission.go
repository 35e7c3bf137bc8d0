package server

import (
	"container/list"
	"context"
	"sync"
	"time"

	"github.com/chrec/rat/internal/telemetry"
)

type waiter struct {
	n     int64
	ready chan struct{} // closed when the weight has been granted
}

// admission is one endpoint's weighted FIFO semaphore: a concurrency
// limit, a bounded queue wait, and telemetry (in-flight gauge,
// high-water-mark gauge, admitted/rejected counters). Each endpoint
// has its own, so endpoints never wait on each other. Waiters are
// granted in arrival order and never past the head of the queue: a
// heavy batch cannot be starved by a stream of light ones. Requests
// that cannot be admitted within the wait bound are rejected — the
// handler turns that into 429 + Retry-After.
type admission struct {
	limit int64
	wait  time.Duration

	mu      sync.Mutex
	cur     int64
	peak    int64
	waiters list.List // of *waiter

	inflight *telemetry.Gauge
	peakG    *telemetry.Gauge
	admitted *telemetry.Counter
	rejected *telemetry.Counter
}

// newAdmission builds the named endpoint's semaphore with the given
// concurrency limit and maximum queue wait.
func newAdmission(reg *telemetry.Registry, endpoint string, limit int64, wait time.Duration) *admission {
	a := &admission{
		limit:    limit,
		wait:     wait,
		admitted: reg.Counter("server.admitted." + endpoint),
		rejected: reg.Counter("server.rejected." + endpoint),
	}
	//rat:bounded-labels endpoint is one of the three API endpoints
	a.inflight = reg.Gauge(`rat_inflight{endpoint="` + endpoint + `"}`)
	//rat:bounded-labels endpoint is one of the three API endpoints
	a.peakG = reg.Gauge(`rat_inflight_peak{endpoint="` + endpoint + `"}`)
	return a
}

// admit asks for weight units of the endpoint's capacity, queueing for
// at most the wait bound (never beyond the request's own deadline — a
// request that would be granted after its deadline is abandoned in the
// queue, not executed late). On success it returns the granted weight,
// which the caller must hand back to release (returning the weight
// instead of a closure keeps the grant off the heap —
// `defer a.release(granted)` is allocation-free); on saturation it
// returns ok == false and the caller answers 429.
func (a *admission) admit(ctx context.Context, weight int64) (granted int64, ok bool) {
	if weight < 1 {
		weight = 1
	}
	if weight > a.limit {
		weight = a.limit // one huge request may use the whole endpoint, not more
	}
	a.mu.Lock()
	if a.waiters.Len() == 0 && a.cur+weight <= a.limit {
		a.grantLocked(weight)
		a.mu.Unlock()
		return weight, true
	}
	if a.wait <= 0 {
		a.mu.Unlock()
		a.rejected.Inc()
		return 0, false
	}
	w := &waiter{n: weight, ready: make(chan struct{})}
	elem := a.waiters.PushBack(w)
	a.mu.Unlock()

	timer := time.NewTimer(a.wait)
	defer timer.Stop()
	select {
	case <-w.ready:
		return weight, true
	case <-ctx.Done():
	case <-timer.C:
	}
	a.mu.Lock()
	select {
	case <-w.ready:
		// Granted between the wait ending and taking the lock: keep the
		// units and report success; the caller will release them.
		a.mu.Unlock()
		return weight, true
	default:
	}
	a.waiters.Remove(elem)
	// Removing the head can unblock the waiters behind it.
	a.notifyLocked()
	a.mu.Unlock()
	a.rejected.Inc()
	return 0, false
}

// release returns a grant obtained from admit and grants as many
// queued waiters as now fit, in arrival order.
func (a *admission) release(weight int64) {
	a.mu.Lock()
	a.cur -= weight
	if a.cur < 0 {
		a.mu.Unlock()
		//rat:allow-panic a double release corrupts admission accounting for every later request
		panic("server: admission released more than held")
	}
	a.inflight.Set(float64(a.cur))
	a.notifyLocked()
	a.mu.Unlock()
}

// grantLocked takes n units, counts the admission and publishes the
// in-flight gauges.
func (a *admission) grantLocked(n int64) {
	a.admitted.Inc()
	a.cur += n
	if a.cur > a.peak {
		a.peak = a.cur
		a.peakG.Set(float64(a.peak))
	}
	a.inflight.Set(float64(a.cur))
}

// notifyLocked grants queued waiters from the head while they fit; it
// never grants past a head that does not.
func (a *admission) notifyLocked() {
	for front := a.waiters.Front(); front != nil; front = a.waiters.Front() {
		w := front.Value.(*waiter)
		if a.cur+w.n > a.limit {
			return
		}
		a.grantLocked(w.n)
		a.waiters.Remove(front)
		close(w.ready)
	}
}
