// Command perfbench is the end-to-end benchmark of ratd. It starts the
// daemon with its default configuration on an ephemeral loopback port,
// drives one seeded workload from outside over at most nproc
// connections, checks every answer against the rat library, and prints
// one JSON line of metrics. See README.md for the workloads, the
// metrics and the design choices that keep the figures steady.
//
// Usage (from the repository root, after building ratd):
//
//	perfbench -ratd .bench_build/ratd -workload predict-hot -seed 1 -seconds 10 -trace 0
//
// perfbench/run.sh builds both binaries and runs this command.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// setupRounds is how many times a run spawns and warms ratd; setup_s
// is the median, and the last daemon serves the measured phase.
const setupRounds = 3

// clientProcs is the load generator's GOMAXPROCS while it drives ratd:
// one, so on a 2-CPU machine the client leaves ratd a CPU of its own
// instead of adding runnable threads for the scheduler to juggle.
const clientProcs = 1

// config is one invocation's settings.
type config struct {
	ratd     string
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, out, errOut io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 2
	}
	var res result
	if cfg.trace {
		res, err = runTraced(ctx, cfg, errOut)
	} else {
		res, err = runEndToEnd(ctx, cfg, errOut)
	}
	if err != nil {
		fmt.Fprintf(errOut, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var cfg config
	var trace int
	fs.StringVar(&cfg.ratd, "ratd", ".bench_build/ratd", "ratd binary to benchmark")
	fs.StringVar(&cfg.workload, "workload", "", "predict-hot, predict-cold, batch-bulk or explore-grid")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch cfg.workload {
	case wPredictHot, wPredictCold, wBatchBulk, wExploreGrid:
	default:
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return cfg, errors.New("-seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1 (got %d)", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// seconds converts a float second count to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// bringUp spawns and warms ratd rounds times, stopping every daemon but
// the last, and returns the last with the set-up time of each round:
// spawn, /readyz, and a warm-up whose every answer is checked.
func bringUp(ctx context.Context, cfg config, in *inputs, rounds int, traced bool) (*daemon, []float64, *tally, error) {
	setups := make([]float64, rounds)
	var warm *tally
	for i := range setups {
		client := newClient(in.conns)
		t0 := time.Now()
		d, err := spawn(ctx, cfg.ratd, client)
		if err != nil {
			return nil, nil, nil, err
		}
		warm = sequence(ctx, client, d.base, in.warm, in.conns, traced)
		setups[i] = time.Since(t0).Seconds()
		client.CloseIdleConnections()
		if err := checkWarm(warm); err != nil {
			d.stop()
			return nil, nil, nil, err
		}
		if i == rounds-1 {
			return d, setups, warm, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, nil, fmt.Errorf("stopping ratd after set-up %d: %w", i+1, err)
		}
	}
	return nil, nil, nil, errors.New("no set-up rounds")
}

// runEndToEnd is the untraced run: set-up three times, then one
// measured phase of plain pre-encoded requests.
func runEndToEnd(ctx context.Context, cfg config, errOut io.Writer) (result, error) {
	in, err := generate(cfg.workload, cfg.seed, runtime.NumCPU())
	if err != nil {
		return result{}, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clientProcs))
	d, setups, _, err := bringUp(ctx, cfg, in, setupRounds, false)
	if err != nil {
		return result{}, err
	}
	defer d.stop()
	pid := d.cmd.Process.Pid
	client := newClient(in.conns)
	defer client.CloseIdleConnections()

	cpu0, err := procCPU(pid)
	if err != nil {
		return result{}, err
	}
	t, start := loop(ctx, client, d.base, in.run, in.conns, seconds(cfg.seconds), false)
	cpu1, err := procCPU(pid)
	if err != nil {
		return result{}, err
	}
	rss, err := procPeakRSS(pid)
	if err != nil {
		return result{}, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}
	lat := sortedCopy(t.latencies)
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return result{}, err
	}
	p99, windows, err := windowedP99(t.starts, t.latencies)
	if err != nil {
		return result{}, fmt.Errorf("run too short: %w", err)
	}
	if err := d.stop(); err != nil {
		return result{}, err
	}
	fmt.Fprintf(errOut, "perfbench: %s seed=%d conns=%d requests=%d ops=%d failed=%d statuses=[%s] samples=%d (supports p%g) p99=%.4fms over %d windows setups=%v\n",
		cfg.workload, cfg.seed, in.conns, t.requests, t.attempted, t.failed, t.statusSummary(),
		len(lat), 100*highestSupported(len(lat)), float64(p99)/1e6, windows, setups)
	return result{
		Correct:   t.wrong == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"latency_p50_ms":   {float64(p50) / 1e6, "ms"},
			"throughput_ops_s": {windowedRate(start, seconds(cfg.seconds), t.starts, t.latencies, t.okOps), "op/s"},
			"cpu_ns_per_op":    {float64(cpu1-cpu0) / float64(t.attempted), "ns"},
			"peak_rss_mb":      {float64(rss) / (1 << 20), "MB"},
		},
	}, nil
}
