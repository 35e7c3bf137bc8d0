// Command ratbench regenerates the paper's tables and figures,
// printing published values side by side with this reproduction's
// predictions and simulated measurements.
//
// Usage:
//
//	ratbench            # run every experiment
//	ratbench -list      # list experiment identifiers
//	ratbench -exp table3 -exp fig2
//	ratbench -metrics -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Every run records per-experiment wall time and pass/fail counters
// (plus the MD-dataset cache hit rate) into a telemetry registry; the
// run ends with a one-line summary of those counters and its own wall
// time, and -metrics prints the full registry. See
// docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/chrec/rat/internal/harness"
	"github.com/chrec/rat/internal/telemetry"
)

type expList []string

func (e *expList) String() string     { return strings.Join(*e, ",") }
func (e *expList) Set(v string) error { *e = append(*e, v); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("ratbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		list       bool
		exps       expList
		metrics    bool
		cpuProfile string
		memProfile string
	)
	fs.BoolVar(&list, "list", false, "list experiment identifiers and exit")
	fs.Var(&exps, "exp", "experiment identifier to run (repeatable; default all)")
	fs.BoolVar(&metrics, "metrics", false, "print the telemetry registry after the run")
	fs.StringVar(&cpuProfile, "cpuprofile", "", "write a pprof CPU profile")
	fs.StringVar(&memProfile, "memprofile", "", "write a pprof heap profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if list {
		for _, e := range harness.All() {
			fmt.Fprintf(out, "%-14s %s\n", e.ID, e.Title)
		}
		return 0
	}

	selected := harness.All()
	if len(exps) > 0 {
		selected = selected[:0]
		for _, id := range exps {
			e, ok := harness.ByID(id)
			if !ok {
				fmt.Fprintf(errOut, "ratbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintf(errOut, "ratbench: %v\n", fmt.Errorf("cpu profile: %w", err))
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(errOut, "ratbench: %v\n", fmt.Errorf("cpu profile %s: %w", cpuProfile, err))
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// Fresh registry per run so the summary reflects this invocation;
	// the harness's internal instrumentation (MD-dataset cache) is
	// pointed at it too.
	reg := telemetry.NewRegistry()
	harness.SetRegistry(reg)
	defer harness.SetRegistry(telemetry.Default())

	failed := false
	start := time.Now()
	for i, e := range selected {
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "=== %s — %s ===\n", e.ID, e.Title)
		text, err := e.RunWith(reg)
		if err != nil {
			fmt.Fprintf(errOut, "ratbench: %s: %v\n", e.ID, err)
			failed = true
			continue
		}
		fmt.Fprint(out, text)
	}

	wall := time.Since(start)
	snap := reg.Snapshot()
	fmt.Fprintf(out, "\nran %d experiment(s), %d failure(s), total wall time %s\n",
		snap.Counters["harness.experiments_run"],
		snap.Counters["harness.experiments_failed"],
		wall.Round(time.Millisecond))
	if metrics {
		fmt.Fprintln(out, "\nmetrics:")
		if err := telemetry.WriteText(out, snap); err != nil {
			fmt.Fprintf(errOut, "ratbench: %v\n", err)
			return 1
		}
	}

	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fmt.Fprintf(errOut, "ratbench: %v\n", fmt.Errorf("heap profile: %w", err))
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(errOut, "ratbench: %v\n", fmt.Errorf("heap profile %s: %w", memProfile, err))
			f.Close()
			return 1
		}
		f.Close()
	}

	if failed {
		return 1
	}
	return 0
}
