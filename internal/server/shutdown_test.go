package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"runtime"
	"syscall"
	"testing"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

// startServer runs Serve on an ephemeral listener and returns the base
// URL plus a channel carrying Serve's return value.
func startServer(t *testing.T, s *Server) (string, chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	return "http://" + l.Addr().String(), served
}

// slowExploreBody builds a /v1/explore request the engine cannot
// prune: 48 alphas x 48 block sizes x 48 device counts x 2 bufferings
// = 221,184 candidates in one-candidate rows (no clock or
// throughput_proc axis), with the frontier asked for. Every candidate
// is evaluated and folded into a frontier of 9,556 members, which
// takes one worker a few hundred milliseconds.
func slowExploreBody(t *testing.T) []byte {
	t.Helper()
	req := api.ExploreRequest{
		Worksheet: worksheet.DocFromParams(paper.PDF1DParams()),
		TopK:      5,
		Frontier:  true,
	}
	for i := 1; i <= 48; i++ {
		req.Alphas = append(req.Alphas, float64(i)/49)
		req.BlockSizes = append(req.BlockSizes, 64*int64(i))
		req.Devices = append(req.Devices, i)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestGracefulShutdownCompletesInFlight pins the drain contract: an
// exploration admitted before Shutdown runs to completion and is
// answered 200, Serve returns http.ErrServerClosed, and the listener
// stops accepting new connections.
func TestGracefulShutdownCompletesInFlight(t *testing.T) {
	srv := New(Config{})
	reg := srv.Metrics()
	url, served := startServer(t, srv)

	// Launch an exploration slow enough to still be running when the
	// drain begins.
	type result struct {
		status int
		err    error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/explore", "application/json",
			bytes.NewReader(slowExploreBody(t)))
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var out api.ExploreResponse
		if derr := json.NewDecoder(resp.Body).Decode(&out); derr != nil && resp.StatusCode == http.StatusOK {
			got <- result{err: derr}
			return
		}
		got <- result{status: resp.StatusCode}
	}()

	// Wait until the request is actually admitted before draining.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Gauges[`rat_inflight{endpoint="explore"}`] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("explore request never showed up in flight")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !srv.Draining() {
		t.Error("Draining() false after Shutdown")
	}

	select {
	case err := <-served:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight explore failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Errorf("in-flight explore answered %d during drain, want 200", r.status)
	}

	// The listener is gone: new connections are refused.
	_, err := net.DialTimeout("tcp", url[len("http://"):], time.Second)
	if err == nil {
		t.Error("listener still accepting connections after drain")
	} else if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Logf("post-drain dial failed with %v (any refusal is acceptable)", err)
	}
}

// TestShutdownDeadlineCancelsExplore covers the other drain outcome:
// when the exploration's own deadline expires mid-drain, the client
// gets 504 rather than a hung connection, and Shutdown still returns
// once the handler unwinds.
func TestShutdownDeadlineCancelsExplore(t *testing.T) {
	srv := New(Config{
		ExploreLimit:   runtime.GOMAXPROCS(0), // one engine worker per explore
		ExploreTimeout: 100 * time.Millisecond,
	})
	reg := srv.Metrics()
	url, served := startServer(t, srv)

	got := make(chan int, 1)
	go func() {
		// One worker cannot finish this grid in the 100ms request
		// deadline.
		resp, err := http.Post(url+"/v1/explore", "application/json",
			bytes.NewReader(slowExploreBody(t)))
		if err != nil {
			got <- -1
			return
		}
		resp.Body.Close()
		got <- resp.StatusCode
	}()

	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Gauges[`rat_inflight{endpoint="explore"}`] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("explore request never showed up in flight")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case status := <-got:
		if status != http.StatusGatewayTimeout {
			t.Errorf("deadline-cancelled explore answered %d, want 504", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled explore never answered")
	}
	select {
	case err := <-served:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

// TestShutdownBeforeServe: Shutdown on a server that never served is a
// clean no-op (ratd hits this when startup fails).
func TestShutdownBeforeServe(t *testing.T) {
	srv := New(Config{})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before Serve: %v", err)
	}
	if !srv.Draining() {
		t.Error("Draining() false after Shutdown")
	}
}
