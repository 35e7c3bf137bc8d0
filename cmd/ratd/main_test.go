package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

// syncBuffer is a bytes.Buffer safe to share between the daemon
// goroutine and the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// listenAddr extracts host:port from the "ratd: listening on ..."
// line, polling until the server goroutine prints it.
func listenAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "ratd: listening on "); ok {
				return rest
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("ratd never printed its listen address; output:\n%s", out.String())
	return ""
}

// TestRunServeDrainExitZero is the end-to-end daemon test: start on an
// ephemeral port, serve a real prediction bit-for-bit, then deliver
// SIGTERM and watch the drain finish with exit code 0.
func TestRunServeDrainExitZero(t *testing.T) {
	var out, errOut syncBuffer
	sig := make(chan os.Signal, 1)
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-addr", "127.0.0.1:0"}, &out, &errOut, sig)
	}()
	addr := listenAddr(t, &out)
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	p := paper.PDF1DParams()
	var body bytes.Buffer
	if err := worksheet.EncodeJSON(&body, p); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/predict", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	var wire api.Prediction
	derr := json.NewDecoder(resp.Body).Decode(&wire)
	resp.Body.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	want, err := core.Predict(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := wire.Core(); got != want {
		t.Error("daemon prediction differs from core.Predict")
	}

	sig <- syscall.SIGTERM
	select {
	case c := <-code:
		if c != 0 {
			t.Errorf("exit code %d after graceful drain, want 0\nstderr: %s", c, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("ratd did not exit after SIGTERM")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still serving after drain")
	}
	if !strings.Contains(out.String(), "ratd: drained, exiting") {
		t.Errorf("missing drain message; output:\n%s", out.String())
	}
}

// TestRunUsageErrors: flag and argument mistakes exit 2 without
// binding a port.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"stray-arg"},
		{"-max-batch", "16"},
		{"-linger", "1ms"},
		{"-explore-workers", "2"},
	} {
		var out, errOut syncBuffer
		if code := run(args, &out, &errOut, nil); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "usage") {
			t.Errorf("run(%q) stderr lacks usage hint: %s", args, errOut.String())
		}
	}
}

// TestRunListenFailure: an unbindable address is a runtime failure
// (exit 1), not a usage error.
func TestRunListenFailure(t *testing.T) {
	var out, errOut syncBuffer
	if code := run([]string{"-addr", "256.0.0.1:99999"}, &out, &errOut, nil); code != 1 {
		t.Errorf("exit code %d for bad listen address, want 1", code)
	}
}

// accessLogLine is the slog JSONL schema of one access-log record.
type accessLogLine struct {
	Msg      string `json:"msg"`
	Method   string `json:"method"`
	Path     string `json:"path"`
	Status   int    `json:"status"`
	DurUs    int64  `json:"dur_us"`
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	StagesNs string `json:"stages_ns"`
}

// TestAccessLogJSONL: with -access-log the daemon writes one
// structured slog record per request, with a server-minted trace ID.
func TestAccessLogJSONL(t *testing.T) {
	logPath := t.TempDir() + "/access.jsonl"
	var out, errOut syncBuffer
	sig := make(chan os.Signal, 1)
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-addr", "127.0.0.1:0", "-access-log", logPath}, &out, &errOut, sig)
	}()
	addr := listenAddr(t, &out)

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	echoed := resp.Header.Get("X-Rat-Trace")

	sig <- syscall.SIGTERM
	if c := <-code; c != 0 {
		t.Fatalf("exit code %d", c)
	}

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("access log has %d lines, want 1:\n%s", len(lines), data)
	}
	var event accessLogLine
	if err := json.Unmarshal([]byte(lines[0]), &event); err != nil {
		t.Fatal(err)
	}
	if event.Msg != "request" || event.Method != "GET" || event.Path != "/healthz" || event.Status != 200 {
		t.Errorf("event = %+v, want request / GET /healthz 200", event)
	}
	if event.TraceID == "" || !strings.HasPrefix(echoed, event.TraceID+"-") {
		t.Errorf("log trace_id %q does not match response header %q", event.TraceID, echoed)
	}
}

// TestAccessLogFlushOnDrain: a request still in flight when SIGTERM
// lands must have its log line on disk by the time ratd exits 0 — the
// buffered sink is flushed after the drain, not abandoned.
func TestAccessLogFlushOnDrain(t *testing.T) {
	logPath := t.TempDir() + "/access.jsonl"
	var out, errOut syncBuffer
	sig := make(chan os.Signal, 1)
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-addr", "127.0.0.1:0", "-access-log", logPath}, &out, &errOut, sig)
	}()
	addr := listenAddr(t, &out)

	// The request body is a pipe the test writes only after the drain
	// has begun: /v1/predict admits before it reads the body, so the
	// request is reliably in flight when the signal lands.
	const trace = "00000000deadbeef-00000001"
	bodyR, bodyW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/predict", bodyR)
		if err != nil {
			done <- err
			return
		}
		req.Header.Set("X-Rat-Trace", trace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- err
			return
		}
		resp.Body.Close()
		done <- nil
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !inflightPredict(t, addr) {
		if time.Now().After(deadline) {
			t.Fatal("predict request never showed up in flight")
		}
		time.Sleep(time.Millisecond)
	}

	sig <- syscall.SIGTERM
	// Shutdown closes the listener first; once dials are refused the
	// drain is under way with the request still held open.
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after SIGTERM")
		}
		time.Sleep(time.Millisecond)
	}
	var body bytes.Buffer
	if err := worksheet.EncodeJSON(&body, paper.PDF1DParams()); err != nil {
		t.Fatal(err)
	}
	go func() {
		bodyW.Write(body.Bytes())
		bodyW.Close()
	}()
	if c := <-code; c != 0 {
		t.Fatalf("exit code %d\nstderr: %s", c, errOut.String())
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed across drain: %v", err)
	}

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var event accessLogLine
		if json.Unmarshal([]byte(ln), &event) == nil &&
			event.Path == "/v1/predict" && event.TraceID == "00000000deadbeef" {
			found = true
			if event.Status != 200 {
				t.Errorf("in-flight request logged status %d, want 200", event.Status)
			}
		}
	}
	if !found {
		t.Errorf("drained access log lacks the in-flight request's line:\n%s", data)
	}
}

// inflightPredict reports whether ratd's /metrics listing shows an
// admitted /v1/predict request.
func inflightPredict(t *testing.T, addr string) bool {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	listing, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(listing), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[1] == `rat_inflight{endpoint="predict"}` {
			return f[2] == "1"
		}
	}
	return false
}
