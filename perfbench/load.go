package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chrec/rat/internal/obs"
)

// The closed-loop load generator: each connection sends its next
// request only after the previous reply, which is how ratd's callers
// (CLIs, scripts, design tools) behave.

// newClient returns an HTTP client holding at most conns keep-alive
// connections to ratd.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// outcome is one request's result.
type outcome struct {
	ok      bool  // 200 with the right answer
	wrong   bool  // 200 with a wrong answer
	status  int   // 0 on a transport error
	latency int64 // ns, request written to reply read
	stages  string
	trace   string
}

// sender sends requests for one connection, reusing its read buffer.
type sender struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
	traced bool
	seq    uint64
	prefix uint64 // high bits of this sender's trace IDs
}

// send posts one item and checks its answer. A transport error, any
// status but 200 and a wrong answer all make the op a failure.
func (s *sender) send(ctx context.Context, it *item) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+it.path, bytes.NewReader(it.body))
	if err != nil {
		return outcome{}
	}
	req.Header.Set("Content-Type", "application/json")
	var o outcome
	if s.traced {
		s.seq++
		var id obs.TraceID
		v := s.prefix<<40 | s.seq
		for i := range id {
			id[i] = byte(v >> (8 * (7 - i)))
		}
		o.trace = obs.FormatTraceHeader(id, obs.SpanID{0, 0, 0, 1})
		req.Header.Set(obs.TraceHeader, o.trace)
		req.Header.Set(obs.StagesHeader, "1")
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		o.latency = int64(time.Since(t0))
		return o
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.latency = int64(time.Since(t0))
	if err != nil {
		return o
	}
	o.status = resp.StatusCode
	if o.status != http.StatusOK {
		return o
	}
	o.stages = resp.Header.Get(obs.StagesHeader)
	o.ok = it.check(s.buf.Bytes())
	o.wrong = !o.ok
	return o
}

// tally accumulates one phase's ops and latencies.
type tally struct {
	requests  int64
	attempted int64
	failed    int64
	wrong     int64
	statuses  map[int]int64
	latencies []int64     // ns, successful requests only
	starts    []time.Time // request start, aligned with latencies
	okOps     []int64     // ops of each successful request, aligned too
	traces    []tracedRequest
}

// tracedRequest is one traced request as the trace phase records it.
type tracedRequest struct {
	path    string
	start   time.Time
	latency int64
	trace   string
	stages  string
}

func (t *tally) add(it *item, o outcome, start time.Time, keepTrace bool) {
	t.requests++
	t.attempted += it.ops
	if t.statuses == nil {
		t.statuses = map[int]int64{}
	}
	t.statuses[o.status]++
	if !o.ok {
		t.failed += it.ops
		if o.wrong {
			t.wrong++
		}
		return
	}
	t.latencies = append(t.latencies, o.latency)
	t.starts = append(t.starts, start)
	t.okOps = append(t.okOps, it.ops)
	if keepTrace {
		t.traces = append(t.traces, tracedRequest{path: it.path, start: start, latency: o.latency, trace: o.trace, stages: o.stages})
	}
}

func (t *tally) merge(o *tally) {
	t.requests += o.requests
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if t.statuses == nil {
		t.statuses = map[int]int64{}
	}
	for k, v := range o.statuses {
		t.statuses[k] += v
	}
	t.latencies = append(t.latencies, o.latencies...)
	t.starts = append(t.starts, o.starts...)
	t.okOps = append(t.okOps, o.okOps...)
	t.traces = append(t.traces, o.traces...)
}

// statusSummary renders the status histogram for diagnostics
// (0 = transport error).
func (t *tally) statusSummary() string {
	var b bytes.Buffer
	for code, n := range t.statuses {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(code) + ":" + strconv.FormatInt(n, 10))
	}
	return b.String()
}

// sequence sends items once, in order, over conns connections: the
// fixed warm-up. Each connection takes the next unsent item, so the
// order of arrival is as close to the listed order as a closed loop
// allows.
func sequence(ctx context.Context, client *http.Client, base string, items []item, conns int, traced bool) *tally {
	var next atomic.Int64
	return fanOut(conns, func(k int, t *tally) {
		s := &sender{client: client, base: base, traced: traced, prefix: uint64(k + 1)}
		for {
			i := next.Add(1) - 1
			if i >= int64(len(items)) || ctx.Err() != nil {
				return
			}
			now := time.Now()
			t.add(&items[i], s.send(ctx, &items[i]), now, traced)
		}
	})
}

// loop cycles items over conns connections until d has passed; every
// request started before the deadline is completed and counted. It
// returns the tally and the time the phase began.
func loop(ctx context.Context, client *http.Client, base string, items []item, conns int, d time.Duration, traced bool) (*tally, time.Time) {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	t := fanOut(conns, func(k int, t *tally) {
		s := &sender{client: client, base: base, traced: traced, prefix: uint64(k + 1)}
		for ctx.Err() == nil {
			now := time.Now()
			if !now.Before(deadline) {
				return
			}
			it := &items[(next.Add(1)-1)%int64(len(items))]
			t.add(it, s.send(ctx, it), now, traced)
		}
	})
	return t, start
}

// fanOut runs body on conns goroutines, each with its own tally, and
// merges the tallies once all have returned.
func fanOut(conns int, body func(k int, t *tally)) *tally {
	parts := make([]tally, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			body(k, &parts[k])
		}(k)
	}
	wg.Wait()
	total := &tally{}
	for k := range parts {
		total.merge(&parts[k])
	}
	return total
}

// checkWarm turns a failed warm-up into an error: set-up must bring
// ratd to steady state with every answer right.
func checkWarm(t *tally) error {
	if t.failed != 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed (%d wrong answers; statuses %s)",
			t.failed, t.attempted, t.wrong, t.statusSummary())
	}
	return nil
}
