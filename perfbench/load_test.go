package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/explore"
)

// TestFailedOps pins the op accounting: a mutated body, a 429 and a
// transport error each count as a failed op, and only the mutated body
// counts as a wrong answer.
func TestFailedOps(t *testing.T) {
	want := []byte(`{"speedup_single":10.5}` + "\n")
	mutated := append([]byte(nil), want...)
	mutated[len(mutated)-3] = '6'
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ok":
			w.Write(want)
		case "/mutated":
			w.Write(mutated)
		case "/busy":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write(want)
		case "/drop":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}
	}))
	defer srv.Close()

	s := &sender{client: newClient(1), base: srv.URL}
	for _, tc := range []struct {
		path         string
		failed       int64
		wrong        int64
		latencyCount int
	}{
		{"/ok", 0, 0, 1},
		{"/mutated", 3, 1, 0},
		{"/busy", 3, 0, 0},
		{"/drop", 3, 0, 0},
	} {
		it := &item{path: tc.path, body: []byte(`{}`), want: want, ops: 3}
		var tl tally
		tl.add(it, s.send(context.Background(), it), time.Time{}, false)
		if tl.attempted != 3 || tl.failed != tc.failed || tl.wrong != tc.wrong || len(tl.latencies) != tc.latencyCount {
			t.Errorf("%s: attempted=%d failed=%d wrong=%d latencies=%d, want 3/%d/%d/%d",
				tc.path, tl.attempted, tl.failed, tl.wrong, len(tl.latencies), tc.failed, tc.wrong, tc.latencyCount)
		}
	}
}

func TestExploreCheckIgnoresRunTelemetry(t *testing.T) {
	want, err := canonicalExplore([]byte(`{"evaluated":4,"feasible":2,"workers":2,"elapsed_seconds":0.1,"candidates_per_sec":40,"top":[{"index":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	it := &item{explore: true, want: want}
	if !it.check([]byte(`{"evaluated":4,"feasible":2,"workers":8,"elapsed_seconds":0.7,"candidates_per_sec":5.7,"top":[{"index":3}]}`)) {
		t.Error("a response differing only in run telemetry was judged wrong")
	}
	if it.check([]byte(`{"evaluated":4,"feasible":2,"workers":2,"elapsed_seconds":0.1,"candidates_per_sec":40,"top":[{"index":2}]}`)) {
		t.Error("a response with a different top-K was judged right")
	}

	// A grid with no feasible candidate: ratd omits the empty frontier
	// the request asked for.
	none, err := canonicalExploreResponse(api.ExploreResponseFromCore(explore.Result{Evaluated: 4}, true))
	if err != nil {
		t.Fatal(err)
	}
	it = &item{explore: true, want: none}
	if !it.check([]byte(`{"evaluated":4,"feasible":0,"workers":2,"elapsed_seconds":0.1,"candidates_per_sec":40,"top":[]}`)) {
		t.Error("an empty frontier omitted by ratd was judged wrong")
	}
}
