package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Outside-in accounting of the ratd process: spawning and stopping it,
// its CPU time and peak RSS from /proc, and its /metrics listing.

// clockTicks is USER_HZ, the unit of the utime and stime fields of
// /proc/<pid>/stat; Linux fixes it at 100 on every architecture the
// benchmark runs on.
const clockTicks = 100

// daemon is one running ratd.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error

	stopOnce sync.Once
	stopErr  error
}

// listenWriter receives ratd's standard output and hands the first line
// ("ratd: listening on <addr>") to the spawner.
type listenWriter struct {
	line []byte
	addr chan string
}

func (w *listenWriter) Write(p []byte) (int, error) {
	if w.addr == nil {
		return len(p), nil
	}
	w.line = append(w.line, p...)
	if i := strings.IndexByte(string(w.line), '\n'); i >= 0 {
		w.addr <- strings.TrimPrefix(string(w.line[:i]), "ratd: listening on ")
		w.addr = nil
	}
	return len(p), nil
}

// spawn starts ratd on an ephemeral loopback port with its default
// configuration and waits until /readyz answers 200.
func spawn(ctx context.Context, ratd string, client *http.Client) (*daemon, error) {
	addr := make(chan string, 1)
	cmd := exec.Command(ratd, "-addr", "127.0.0.1:0")
	cmd.Stdout = &listenWriter{addr: addr}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ratd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("ratd exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("ratd did not announce its listener within 10s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("ratd at %s never became ready", d.base)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains ratd with SIGTERM, kills it if the drain hangs, and waits
// until the process has exited. Later calls return the first result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() { d.stopErr = d.drain() })
	return d.stopErr
}

func (d *daemon) drain() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.cmd.Process.Kill()
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		return fmt.Errorf("ratd ignored SIGTERM: %v", <-d.done)
	}
}

// procCPU returns the process's user+system CPU time from
// /proc/<pid>/stat, summed over all its threads.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat CPU field %q: %w", s, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procPeakRSS returns the process's peak resident set size (VmHWM) in
// bytes.
func procPeakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// metricsSnapshot is one scrape of ratd's /metrics text listing:
// counters and gauges by name, histograms as "<name>.count" and
// "<name>.sum".
type metricsSnapshot map[string]float64

// scrapeMetrics fetches the default (telemetry text) /metrics listing.
func scrapeMetrics(client *http.Client, base string) (metricsSnapshot, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(string(body))
}

// parseMetrics reads the telemetry text listing: "counter <name> <v>",
// "gauge <name> <v>", "histo <name> count=<n> sum=<s> ...". Timer lines
// are skipped; the benchmark takes its timings from outside.
func parseMetrics(listing string) (metricsSnapshot, error) {
	m := metricsSnapshot{}
	for _, line := range strings.Split(listing, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		switch f[0] {
		case "counter", "gauge":
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			m[f[1]] = v
		case "histo":
			for _, kv := range f[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok || (k != "count" && k != "sum") {
					continue
				}
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("metrics line %q: %w", line, err)
				}
				m[f[1]+"."+k] = x
			}
		}
	}
	return m, nil
}

// ratio is a per-layer ratio reported with its base.
type ratio struct {
	value, base float64
}

func ratioOf(num, base float64) ratio {
	if base == 0 {
		return ratio{}
	}
	return ratio{num / base, base}
}

// serverLayers turns two /metrics scrapes bracketing a phase of ops
// ops into the per-layer server ratios.
type serverLayers struct {
	cacheHit       ratio // hits per lookup; base = lookups
	evictionsPerOp ratio // base = ops
	batchSizeMean  ratio // requests per coalesced batch; base = batches
	rejected       map[string]ratio
}

var endpoints = [...]string{"predict", "batch", "explore"}

func layersFromMetrics(before, after metricsSnapshot, ops int64) serverLayers {
	d := func(name string) float64 { return after[name] - before[name] }
	hits, misses := d("server.cache_hits"), d("server.cache_misses")
	l := serverLayers{
		cacheHit:       ratioOf(hits, hits+misses),
		evictionsPerOp: ratioOf(d("server.cache_evictions"), float64(ops)),
		batchSizeMean:  ratioOf(d("server.batch_size.sum"), d("server.batches")),
		rejected:       map[string]ratio{},
	}
	for _, ep := range endpoints {
		rej := d("server.rejected." + ep)
		l.rejected[ep] = ratioOf(rej, rej+d("server.admitted."+ep))
	}
	return l
}
