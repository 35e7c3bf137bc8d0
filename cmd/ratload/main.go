// Command ratload is a closed-loop load generator for ratd. Each of
// -c workers posts a worksheet to /v1/predict, waits for the answer,
// and posts again — optionally paced to an aggregate -qps by a shared
// token ticker. Latencies feed a telemetry histogram and timer; the
// report prints achieved throughput, the status-class breakdown and
// the latency distribution.
//
// Usage:
//
//	ratload -url http://127.0.0.1:8080 -c 8 -duration 10s
//	ratload -url http://127.0.0.1:8080 -qps 500 -c 16 -duration 30s
//	ratload -url http://127.0.0.1:8080 -worksheet design.json -devices 2
//	ratload -url http://127.0.0.1:8080 -n 100 -traces 5
//	ratload -url http://127.0.0.1:8080 -wire binary -duration 10s
//	ratload -url http://127.0.0.1:8080 -key K1 -qps 50
//	ratload -url http://127.0.0.1:8080 -mix noisy-neighbor \
//	    -key-compliant K1 -key-hostile K2 -duration 10s
//	ratload -url http://127.0.0.1:8080 \
//	    -distributed http://127.0.0.1:8081,http://127.0.0.1:8082 -rounds 5
//
// With -n the run stops after that many requests even if -duration has
// time left. With -traces N every request carries an X-Rat-Trace header
// and asks for the server's per-stage breakdown (X-Rat-Stages); the
// report then prints the N slowest requests with their trace IDs and
// stage timings, plus how many trace IDs the server echoed back — a
// quick end-to-end check that tracing is wired through.
//
// With -wire binary every request and response uses ratd's compact
// binary wire format (application/x-rat-bin) instead of JSON. Before
// the measured run starts, ratload sends the worksheet once in each
// format and proves the two predictions are bit-for-bit identical,
// printing a stable "wire parity:" line that CI greps.
//
// With -key every request carries the key as Authorization: Bearer,
// for servers started with ratd -tenants. With -mix, ratload instead
// drives two tenants at once — a compliant one paced inside its quota
// (-compliant-qps) and a hostile one shaped by the mix name: flat-out
// closed loop far above quota (noisy-neighbor), synchronized bursts on
// a shared boundary (thundering-herd), or paced right at the bucket's
// refill rate with periodic doubles probing the edge (quota-edge). The
// report then adds one stable line per tenant (requests, ok,
// rejected_429, p50/p99) that CI greps to assert isolation: the
// compliant tenant must see zero 429s while the hostile one is shed.
// -n, -qps and -traces apply only to single-tenant runs.
//
// With -distributed, ratload instead drives the coordinator's
// POST /v1/explore/distributed: -rounds identical explore requests
// sharded across the listed worker fleet, every response's counts and
// candidates byte-compared against the first (run telemetry — elapsed
// time, per-worker shard tallies — is stripped, since it legitimately
// varies). The stable "distributed parity:"
// line is the assertion surface — any divergence means the merge
// leaked scheduling order, which the determinism contract
// (docs/DISTRIBUTED.md) forbids.
//
// Exit codes: 0 when the run completes and every request got an HTTP
// response (any status), 1 on runtime failure (unreachable server,
// transport errors), 2 on usage errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/cli"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/obs"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/telemetry"
	"github.com/chrec/rat/internal/wire"
	"github.com/chrec/rat/internal/worksheet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// latencyBounds are the histogram bucket upper bounds in seconds,
// log-spaced from 100us to ~13s.
var latencyBounds = []float64{
	0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005,
	0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 13,
}

func run(args []string, out, errOut io.Writer) int {
	err := load(args, out)
	if err != nil {
		fmt.Fprintf(errOut, "ratload: %v\n", err)
		if cli.Code(err) == 2 {
			fmt.Fprintln(errOut, "usage: ratload -url http://host:port [-qps N] [-c N] [-duration D] [-worksheet file]")
		}
	}
	return cli.Code(err)
}

func load(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ratload", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	baseURL := fs.String("url", "http://127.0.0.1:8080", "ratd base URL")
	qps := fs.Float64("qps", 0, "aggregate request rate (0 = unpaced closed loop)")
	conc := fs.Int("c", 4, "concurrent closed-loop workers")
	duration := fs.Duration("duration", 10*time.Second, "run length")
	worksheetPath := fs.String("worksheet", "", "worksheet JSON file (default: the paper's 1-D PDF worksheet)")
	devices := fs.Int("devices", 1, "devices query parameter")
	topology := fs.String("topology", "", "topology query parameter (shared, independent)")
	reqTimeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	budget := fs.Int64("n", 0, "total request budget (0 = duration-bound only)")
	wireFmt := fs.String("wire", "json", "wire format: json or binary (application/x-rat-bin)")
	traces := fs.Int("traces", 0, "trace every request, report the N slowest with stage breakdowns (0 disables)")
	apiKey := fs.String("key", "", "API key sent as Authorization: Bearer (tenanted servers)")
	mix := fs.String("mix", "", "adversarial two-tenant mix: noisy-neighbor, thundering-herd or quota-edge")
	keyCompliant := fs.String("key-compliant", "", "compliant tenant's API key (required with -mix)")
	keyHostile := fs.String("key-hostile", "", "hostile tenant's API key (required with -mix)")
	compliantQPS := fs.Float64("compliant-qps", 20, "paced request rate of the compliant tenant in a -mix run")
	distributed := fs.String("distributed", "", "comma-separated worker URLs: repeat a distributed explore via -url's /v1/explore/distributed and byte-compare the responses")
	rounds := fs.Int("rounds", 5, "identical requests per -distributed parity run")
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", fs.Arg(0))
	}
	if *conc < 1 {
		return cli.Usagef("-c must be at least 1 (got %d)", *conc)
	}
	if *duration <= 0 {
		return cli.Usagef("-duration must be positive (got %v)", *duration)
	}
	if *qps < 0 {
		return cli.Usagef("-qps must be non-negative (got %v)", *qps)
	}
	if *budget < 0 {
		return cli.Usagef("-n must be non-negative (got %d)", *budget)
	}
	if *traces < 0 {
		return cli.Usagef("-traces must be non-negative (got %d)", *traces)
	}
	if _, err := url.ParseRequestURI(*baseURL); err != nil {
		return cli.Usagef("-url: %v", err)
	}
	switch *wireFmt {
	case "json", "binary":
	default:
		return cli.Usagef("-wire %q: want json or binary", *wireFmt)
	}
	switch *mix {
	case "", "noisy-neighbor", "thundering-herd", "quota-edge":
	default:
		return cli.Usagef("-mix %q: want noisy-neighbor, thundering-herd or quota-edge", *mix)
	}
	if *mix != "" {
		if *keyCompliant == "" || *keyHostile == "" {
			return cli.Usagef("-mix requires both -key-compliant and -key-hostile")
		}
		if *apiKey != "" {
			return cli.Usagef("-key and -mix are mutually exclusive")
		}
		if *compliantQPS <= 0 {
			return cli.Usagef("-compliant-qps must be positive (got %v)", *compliantQPS)
		}
	}
	if *distributed != "" {
		if *mix != "" {
			return cli.Usagef("-distributed and -mix are mutually exclusive")
		}
		if *rounds < 1 {
			return cli.Usagef("-rounds must be at least 1 (got %d)", *rounds)
		}
	}

	var body []byte
	params := paper.PDF1DParams()
	if *worksheetPath == "" {
		var buf bytes.Buffer
		if err := worksheet.EncodeJSON(&buf, params); err != nil {
			return err
		}
		body = buf.Bytes()
	} else {
		b, err := os.ReadFile(*worksheetPath)
		if err != nil {
			return err
		}
		// Fail fast on a bad worksheet rather than measuring 400s.
		p, err := worksheet.DecodeJSON(bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("worksheet %s: %w", *worksheetPath, err)
		}
		params = p
		body = b
	}
	binary := *wireFmt == "binary"
	if binary {
		body = wire.AppendBinaryWorksheet(nil, params)
	}

	if *distributed != "" {
		return runDistributed(out, *baseURL, *distributed, *rounds, params, *reqTimeout, *apiKey)
	}

	target := strings.TrimSuffix(*baseURL, "/") + "/v1/predict"
	q := url.Values{}
	if *devices > 1 {
		q.Set("devices", fmt.Sprint(*devices))
	}
	if *topology != "" {
		q.Set("topology", *topology)
	}
	if len(q) > 0 {
		target += "?" + q.Encode()
	}

	if *mix != "" {
		return runMix(out, *mix, target, body, binary, *reqTimeout, *duration,
			*conc, *compliantQPS, *keyCompliant, *keyHostile)
	}

	reg := telemetry.NewRegistry()
	latHist := reg.Histogram("load.latency_seconds", latencyBounds)
	latTimer := reg.Timer("load.latency")
	var sent, transportErrs, taken atomic.Int64
	var statusMu sync.Mutex
	statuses := make(map[int]int64)
	var sampler *traceSampler
	if *traces > 0 {
		sampler = &traceSampler{}
	}

	// The pacer: with -qps, workers take a token per request from a
	// shared ticker; unpaced workers run flat out.
	var tokens <-chan time.Time
	if *qps > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / *qps))
		defer t.Stop()
		tokens = t.C
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	client := &http.Client{Timeout: *reqTimeout}

	if binary {
		// Prove the two wire formats agree before measuring anything:
		// a binary run whose answers drifted from the JSON path would
		// be load-testing a bug.
		if err := wireParity(out, client, target, *apiKey, params, *devices > 1); err != nil {
			return err
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if *budget > 0 && taken.Add(1) > *budget {
					return
				}
				if tokens != nil {
					select {
					case <-tokens:
					case <-ctx.Done():
						return
					}
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
				if err != nil {
					transportErrs.Add(1)
					return
				}
				setWireHeaders(req, binary)
				if *apiKey != "" {
					req.Header.Set("Authorization", "Bearer "+*apiKey)
				}
				var traceHdr string
				if sampler != nil {
					traceHdr = obs.FormatTraceHeader(obs.NewTraceID(), obs.NewSpanID())
					req.Header.Set(obs.TraceHeader, traceHdr)
					req.Header.Set(obs.StagesHeader, "1")
				}
				sent.Add(1)
				t0 := time.Now()
				resp, err := client.Do(req)
				elapsed := time.Since(t0)
				if err != nil {
					if ctx.Err() != nil {
						sent.Add(-1) // cut short by the deadline, not a sample
						return
					}
					transportErrs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				latHist.Observe(elapsed.Seconds())
				latTimer.Observe(elapsed)
				if sampler != nil {
					sampler.record(traceSample{
						trace:   traceHdr[:16], // the trace-ID half of the header
						latency: elapsed,
						stages:  resp.Header.Get(obs.StagesHeader),
						echoed:  resp.Header.Get(obs.TraceHeader) == traceHdr,
					})
				}
				statusMu.Lock()
				statuses[resp.StatusCode]++
				statusMu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(out, reg, statuses, sent.Load(), transportErrs.Load(), elapsed, *conc, *qps)
	if sampler != nil {
		sampler.report(out, *traces)
	}
	if transportErrs.Load() > 0 {
		return fmt.Errorf("%d transport errors (is ratd up at %s?)", transportErrs.Load(), *baseURL)
	}
	return nil
}

// runMix drives the adversarial two-tenant mixes against a tenanted
// ratd: a compliant tenant paced inside its quota next to a hostile
// tenant shaped by the mix name. It exists to prove isolation, not to
// measure throughput — the per-tenant report lines are the assertion
// surface (CI greps the compliant tenant's rejected_429 field).
func runMix(out io.Writer, mode, target string, body []byte, binary bool,
	timeout, duration time.Duration, conc int, compliantQPS float64,
	keyCompliant, keyHostile string) error {

	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	client := &http.Client{Timeout: timeout}

	compliant := &tenantLoad{name: "compliant", key: keyCompliant, binary: binary}
	hostile := &tenantLoad{name: "hostile", key: keyHostile, binary: binary}

	// The compliant tenant shares one ticker across its workers so its
	// aggregate rate stays at -compliant-qps no matter the worker
	// count; any 429 it sees is an isolation failure, not shedding.
	compTick := time.NewTicker(time.Duration(float64(time.Second) / compliantQPS))
	defer compTick.Stop()
	compWorkers := conc / 4
	if compWorkers < 1 {
		compWorkers = 1
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < compWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				select {
				case <-compTick.C:
				case <-ctx.Done():
					return
				}
				compliant.do(ctx, client, target, body)
			}
		}()
	}

	var hostileTick *time.Ticker
	if mode == "quota-edge" {
		// Paced to the compliant rate — presumed at or near the hostile
		// bucket's refill rate — with a double every fourth request to
		// probe the boundary accounting from just above.
		hostileTick = time.NewTicker(time.Duration(float64(time.Second) / compliantQPS))
		defer hostileTick.Stop()
	}
	const herdPeriod = 250 * time.Millisecond
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				switch mode {
				case "noisy-neighbor":
					// Flat-out closed loop, far above any sane quota.
					hostile.do(ctx, client, target, body)
				case "thundering-herd":
					// Every worker sleeps to the same period boundary,
					// then all fire a burst together.
					d := herdPeriod - time.Since(start)%herdPeriod
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
					for b := 0; b < 4 && ctx.Err() == nil; b++ {
						hostile.do(ctx, client, target, body)
					}
				case "quota-edge":
					select {
					case <-hostileTick.C:
					case <-ctx.Done():
						return
					}
					hostile.do(ctx, client, target, body)
					if i%4 == 3 {
						hostile.do(ctx, client, target, body)
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Fprintf(out, "ratload: %s mix, %v, %d hostile + %d compliant workers (compliant paced to %.0f qps)\n",
		mode, elapsed.Round(time.Millisecond), conc, compWorkers, compliantQPS)
	compliant.report(out)
	hostile.report(out)
	if te := compliant.transport.Load() + hostile.transport.Load(); te > 0 {
		return fmt.Errorf("%d transport errors (is ratd up?)", te)
	}
	return nil
}

// setWireHeaders marks the request with the chosen wire format:
// JSON, or the compact binary frames on both sides of the exchange.
func setWireHeaders(req *http.Request, binary bool) {
	if binary {
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		req.Header.Set("Accept", wire.ContentTypeBinary)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
}

// wireParity posts the run's worksheet once in each wire format and
// compares the decoded predictions with != — bit-for-bit, no
// tolerance. The printed line is stable: `make server-smoke` greps it
// to assert the two encodings answer identically.
func wireParity(out io.Writer, client *http.Client, target, apiKey string,
	p core.Parameters, multi bool) error {

	var jbuf bytes.Buffer
	if err := worksheet.EncodeJSON(&jbuf, p); err != nil {
		return err
	}
	jsonBody, err := postOnce(client, target, apiKey, jbuf.Bytes(), false)
	if err != nil {
		return fmt.Errorf("wire parity (json): %w", err)
	}
	binBody, err := postOnce(client, target, apiKey, wire.AppendBinaryWorksheet(nil, p), true)
	if err != nil {
		return fmt.Errorf("wire parity (binary): %w", err)
	}
	if multi {
		var jm api.MultiPrediction
		if err := json.Unmarshal(jsonBody, &jm); err != nil {
			return fmt.Errorf("wire parity: decoding JSON response: %w", err)
		}
		bm, err := wire.DecodeBinaryMultiPrediction(binBody)
		if err != nil {
			return fmt.Errorf("wire parity: decoding binary response: %w", err)
		}
		if jm.Core() != bm.Core() {
			return fmt.Errorf("wire parity: multi predictions differ\n json  %+v\n binary %+v", jm.Core(), bm.Core())
		}
	} else {
		var jp api.Prediction
		if err := json.Unmarshal(jsonBody, &jp); err != nil {
			return fmt.Errorf("wire parity: decoding JSON response: %w", err)
		}
		bp, err := wire.DecodeBinaryPrediction(binBody)
		if err != nil {
			return fmt.Errorf("wire parity: decoding binary response: %w", err)
		}
		if jp.Core() != bp.Core() {
			return fmt.Errorf("wire parity: predictions differ\n json  %+v\n binary %+v", jp.Core(), bp.Core())
		}
	}
	fmt.Fprintln(out, "wire parity: json and binary predictions identical")
	return nil
}

// postOnce sends one request outside the measured run and returns the
// response body, treating anything but 200 as an error.
func postOnce(client *http.Client, target, apiKey string, body []byte, binary bool) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	setWireHeaders(req, binary)
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, b)
	}
	return b, nil
}

// tenantLoad tallies one tenant's stream in a mix run.
type tenantLoad struct {
	name   string
	key    string
	binary bool

	sent, ok, rejected, other, transport atomic.Int64

	mu   sync.Mutex
	lats []time.Duration
}

// do sends one request under the tenant's key and tallies the outcome.
func (t *tenantLoad) do(ctx context.Context, client *http.Client, target string, body []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		t.transport.Add(1)
		return
	}
	setWireHeaders(req, t.binary)
	req.Header.Set("Authorization", "Bearer "+t.key)
	t.sent.Add(1)
	t0 := time.Now()
	resp, err := client.Do(req)
	elapsed := time.Since(t0)
	if err != nil {
		if ctx.Err() != nil {
			t.sent.Add(-1) // cut short by the run deadline, not a sample
			return
		}
		t.transport.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		t.ok.Add(1)
	case http.StatusTooManyRequests:
		t.rejected.Add(1)
	default:
		t.other.Add(1)
	}
	t.mu.Lock()
	t.lats = append(t.lats, elapsed)
	t.mu.Unlock()
}

// report prints the tenant's one-line tally. The field=value format is
// load-bearing: the CI tenant-smoke job greps "tenant compliant:" and
// asserts rejected_429=0, so keep the fields stable.
func (t *tenantLoad) report(out io.Writer) {
	t.mu.Lock()
	lats := append([]time.Duration(nil), t.lats...)
	t.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var p50, p99 time.Duration
	if n := len(lats); n > 0 {
		p50 = lats[n/2]
		p99 = lats[n*99/100]
	}
	fmt.Fprintf(out, "tenant %s: requests=%d ok=%d rejected_429=%d other=%d transport=%d p50=%v p99=%v\n",
		t.name, t.sent.Load(), t.ok.Load(), t.rejected.Load(), t.other.Load(),
		t.transport.Load(), p50.Round(time.Microsecond), p99.Round(time.Microsecond))
}

// traceSample is one traced request's outcome: its ID, latency, the
// server's stage breakdown header, and whether the server echoed the
// trace ID back (end-to-end propagation proof).
type traceSample struct {
	trace   string
	latency time.Duration
	stages  string
	echoed  bool
}

// traceSampler accumulates traced requests across workers.
type traceSampler struct {
	mu      sync.Mutex
	samples []traceSample
}

func (s *traceSampler) record(ts traceSample) {
	s.mu.Lock()
	s.samples = append(s.samples, ts)
	s.mu.Unlock()
}

// report prints the round-trip tally and the n slowest traces with
// their stage breakdowns.
func (s *traceSampler) report(out io.Writer, n int) {
	s.mu.Lock()
	samples := s.samples
	s.mu.Unlock()
	if len(samples) == 0 {
		return
	}
	echoed := 0
	for _, ts := range samples {
		if ts.echoed {
			echoed++
		}
	}
	fmt.Fprintf(out, "traces: %d/%d echoed by the server\n", echoed, len(samples))
	sort.Slice(samples, func(i, j int) bool { return samples[i].latency > samples[j].latency })
	if n > len(samples) {
		n = len(samples)
	}
	fmt.Fprintf(out, "slowest %d traces (stage times in ns):\n", n)
	for _, ts := range samples[:n] {
		stages := ts.stages
		if stages == "" {
			stages = "(no stage breakdown)"
		}
		fmt.Fprintf(out, "  %10v  trace=%s  %s\n", ts.latency.Round(time.Microsecond), ts.trace, stages)
	}
}

// report prints the run summary: throughput, status classes and the
// latency distribution from the telemetry registry.
func report(out io.Writer, reg *telemetry.Registry, statuses map[int]int64,
	sent, transportErrs int64, elapsed time.Duration, conc int, qps float64) {

	snap := reg.Snapshot()
	lat := snap.Timers["load.latency"]
	hist := snap.Histograms["load.latency_seconds"]

	fmt.Fprintf(out, "ratload: %d requests in %v (%.1f req/s, %d workers",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds(), conc)
	if qps > 0 {
		fmt.Fprintf(out, ", paced to %.0f qps", qps)
	}
	fmt.Fprintln(out, ")")

	codes := make([]int, 0, len(statuses))
	for code := range statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(out, "  HTTP %d: %d\n", code, statuses[code])
	}
	if transportErrs > 0 {
		fmt.Fprintf(out, "  transport errors: %d\n", transportErrs)
	}

	if lat.Count > 0 {
		fmt.Fprintf(out, "latency: mean %v  min %v  max %v  (%d samples)\n",
			lat.Mean.Round(time.Microsecond), lat.Min.Round(time.Microsecond),
			lat.Max.Round(time.Microsecond), lat.Count)
	}
	if hist.Count > 0 {
		fmt.Fprintln(out, "latency histogram (upper bound: count):")
		cum := int64(0)
		for _, b := range hist.Buckets {
			if b.Count == 0 {
				continue
			}
			cum += b.Count
			fmt.Fprintf(out, "  <= %8.4fs: %6d (%5.1f%%)\n",
				b.UpperBound, b.Count, 100*float64(cum)/float64(hist.Count))
		}
		if hist.Overflow > 0 {
			cum += hist.Overflow
			fmt.Fprintf(out, "  <=     +Inf: %6d (%5.1f%%)\n",
				hist.Overflow, 100*float64(cum)/float64(hist.Count))
		}
	}
}
