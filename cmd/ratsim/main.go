// Command ratsim runs the simulated RC platforms directly: case-study
// scenarios with timelines, interconnect microbenchmarks, and ad-hoc
// synthetic scenarios — the reproduction's stand-in for putting a
// design on the bench.
//
// Usage:
//
//	ratsim run -case pdf1d [-mhz 150] [-double] [-devices 2] [-gantt]
//	ratsim run -case pdf1d -trace out.json -events out.jsonl -metrics
//	ratsim run -case pdf1d -faults crc=0.01,upset=0.001 -fault-seed 7 -fault-policy retries=5
//	ratsim microbench [-platform nallatech] [-sizes 256,2048,262144]
//	ratsim synth -elements 4096 -out 4096 -bytes 4 -iters 10 -cycles 20000 [-mhz 100] [-double] [-gantt]
//	ratsim explore -case pdf1d -clocks 75,100,150 -tp 10,20,40 -alphas 0.16,0.37 -top 10 -frontier
//
// The -trace flag exports a Chrome trace_event JSON file loadable in
// chrome://tracing or Perfetto; -events writes a JSONL event log;
// -metrics prints the telemetry registry after the run; -cpuprofile
// and -memprofile write runtime/pprof profiles. See
// docs/OBSERVABILITY.md. The -faults, -fault-seed and -fault-policy
// flags inject deterministic platform faults; see docs/FAULTS.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/chrec/rat/internal/apps/md"
	"github.com/chrec/rat/internal/apps/pdf1d"
	"github.com/chrec/rat/internal/apps/pdf2d"
	"github.com/chrec/rat/internal/cli"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/fault"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/platform"
	"github.com/chrec/rat/internal/rcsim"
	"github.com/chrec/rat/internal/report"
	"github.com/chrec/rat/internal/telemetry"
	"github.com/chrec/rat/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point. Exit codes follow the shared
// contract of package cli: 0 success, 1 runtime failure, 2 usage.
func run(args []string, out, errOut io.Writer) int {
	if len(args) < 1 {
		usage(errOut)
		return 2
	}
	var err error
	switch args[0] {
	case "run":
		err = cmdRun(args[1:], out, errOut)
	case "microbench":
		err = cmdMicrobench(args[1:], out)
	case "synth":
		err = cmdSynth(args[1:], out)
	case "explore":
		err = cmdExplore(args[1:], out, errOut)
	case "-h", "-help", "--help", "help":
		usage(out)
	default:
		fmt.Fprintf(errOut, "ratsim: unknown command %q\n", args[0])
		usage(errOut)
		return 2
	}
	if err != nil {
		fmt.Fprintf(errOut, "ratsim: %v\n", err)
		if errors.Is(err, cli.ErrUsage) {
			usage(errOut)
		}
	}
	return cli.Code(err)
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  ratsim run -case pdf1d|pdf2d|md [-mhz 150] [-double] [-gantt] [observability flags]
  ratsim microbench [-platform nallatech|xd1000] [-sizes 256,2048,262144]
  ratsim synth -elements N -out N -bytes N -iters N -cycles N [-mhz 100] [-double] [-devices N] [-gantt] [observability flags]
  ratsim explore [-case pdf1d | -worksheet f.json] [-clocks 75,100,150] [-tp 10,20,40]
                 [-alphas 0.16,0.37] [-blocks 512,2048] [-devices 1,2,4] [-topology shared|independent]
                 [-buffering single|double|both] [-objective max-speedup|min-trc|min-cost]
                 [-min-speedup X] [-max-trc S] [-max-util-comm F] [-max-devices N]
                 [-top 10] [-workers 0] [-frontier] [-jsonl] [-metrics]

observability flags (see docs/OBSERVABILITY.md):
  -trace out.json    export a Chrome trace-event file (chrome://tracing, Perfetto)
  -events out.jsonl  write a JSONL event log of every transfer/compute/buffer swap
  -metrics           print the telemetry registry after the run
  -cpuprofile f      write a runtime/pprof CPU profile
  -memprofile f      write a runtime/pprof heap profile

fault-injection flags for run and synth (see docs/FAULTS.md):
  -faults spec       inject faults, e.g. crc=0.01,dma=0.002,upset=0.001,dropout=0.0005
  -fault-seed N      deterministic fault-pattern seed (default 1)
  -fault-policy spec recovery policy, e.g. retries=5,backoff=20us,growth=2,failfast
`)
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func buffering(double bool) core.Buffering {
	if double {
		return core.DoubleBuffered
	}
	return core.SingleBuffered
}

// faultFlags holds the fault-injection options shared by run and synth.
type faultFlags struct {
	spec   string
	seed   uint64
	policy string
}

func addFaultFlags(fs *flag.FlagSet) *faultFlags {
	f := &faultFlags{}
	fs.StringVar(&f.spec, "faults", "", "fault rates, e.g. crc=0.01,dma=0.002 (docs/FAULTS.md)")
	fs.Uint64Var(&f.seed, "fault-seed", 1, "deterministic fault-pattern seed")
	fs.StringVar(&f.policy, "fault-policy", "", "recovery policy, e.g. retries=5,backoff=20us,failfast")
	return f
}

// plan builds the fault plan the flags describe; nil when no faults
// were requested. Malformed specs are usage errors.
func (f *faultFlags) plan() (*fault.Plan, error) {
	if f.spec == "" {
		if f.policy != "" {
			return nil, fmt.Errorf("%w: -fault-policy is set but -faults is not", cli.ErrUsage)
		}
		return nil, nil
	}
	pl, err := fault.ParseRates(f.spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	pol, err := fault.ParsePolicy(f.policy)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	pl.Seed = f.seed
	pl.Policy = pol
	return &pl, nil
}

// obsFlags holds the observability options shared by run and synth.
type obsFlags struct {
	traceOut   string
	eventsOut  string
	metrics    bool
	cpuProfile string
	memProfile string
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.traceOut, "trace", "", "write a Chrome trace-event JSON file")
	fs.StringVar(&o.eventsOut, "events", "", "write a JSONL event log")
	fs.BoolVar(&o.metrics, "metrics", false, "print the metrics registry after the run")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile")
	return o
}

// startProfiles begins CPU profiling if requested and returns a stop
// function that finishes both profiles.
func (o *obsFlags) startProfiles() (func() error, error) {
	var cpuF *os.File
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile %s: %w", o.cpuProfile, err)
		}
		cpuF = f
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if o.memProfile != "" {
			f, err := os.Create(o.memProfile)
			if err != nil {
				return fmt.Errorf("heap profile: %w", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// instrument attaches a full-run trace recorder and/or event sink to
// the scenario as the flags demand. The returned finish function must
// run after the simulation: it exports the trace file and flushes the
// event log.
func (o *obsFlags) instrument(sc *rcsim.Scenario) (finish func() error, err error) {
	var rec *trace.Recorder
	if o.traceOut != "" {
		if sc.Trace == nil {
			sc.Trace = &trace.Recorder{}
		}
		rec = sc.Trace
	}
	var (
		eventsFile *os.File
		sink       *telemetry.WriterSink
	)
	if o.eventsOut != "" {
		eventsFile, err = os.Create(o.eventsOut)
		if err != nil {
			return nil, fmt.Errorf("event log: %w", err)
		}
		sink = telemetry.NewWriterSink(eventsFile)
		sc.Events = sink
	}
	return func() error {
		if sink != nil {
			err := sink.Err()
			if cerr := eventsFile.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("event log %s: %w", o.eventsOut, err)
			}
		}
		if rec != nil {
			f, err := os.Create(o.traceOut)
			if err != nil {
				return fmt.Errorf("chrome trace: %w", err)
			}
			if err := telemetry.WriteChromeTrace(f, rec.Spans()); err != nil {
				f.Close()
				return fmt.Errorf("chrome trace %s: %w", o.traceOut, err)
			}
			return f.Close()
		}
		return nil
	}, nil
}

// printMetrics records the measurement and the simulation's wall time
// into a fresh registry and prints it.
func printMetrics(out io.Writer, m rcsim.Measurement, wall time.Duration) error {
	reg := telemetry.NewRegistry()
	reg.Gauge("ratsim.sim_wall").Set(wall.Seconds())
	m.RecordMetrics(reg)
	fmt.Fprintln(out, "\nmetrics:")
	return telemetry.WriteText(out, reg.Snapshot())
}

func printMeasurement(out io.Writer, m rcsim.Measurement, tSoft float64, rec *trace.Recorder, gantt bool) {
	fmt.Fprintf(out, "t_comm  = %s s/iter\n", report.FormatSci(m.TComm()))
	fmt.Fprintf(out, "t_comp  = %s s/iter\n", report.FormatSci(m.TComp()))
	fmt.Fprintf(out, "t_RC    = %s s (%d iterations, %s)\n", report.FormatSci(m.TRC()), m.Scenario.Iterations, m.Scenario.Buffering)
	fmt.Fprintf(out, "util    = %s comm / %s comp\n", report.FormatPercent(m.UtilComm()), report.FormatPercent(m.UtilComp()))
	if tSoft > 0 {
		fmt.Fprintf(out, "speedup = %.2f over t_soft %.3g s\n", m.Speedup(tSoft), tSoft)
	}
	if m.Scenario.Faults.Enabled() {
		fmt.Fprintf(out, "faults  = %d retries, %d failovers, %s s lost (%s of runtime)\n",
			m.Retries, m.Failovers, report.FormatSci(m.FaultTime.Seconds()), report.FormatPercent(m.UtilFault()))
	}
	if gantt && rec != nil {
		fmt.Fprintln(out)
		fmt.Fprint(out, rec.Gantt(96))
	}
}

func cmdRun(args []string, out, errOut io.Writer) error {
	fs := newFlagSet("run")
	study := fs.String("case", "pdf1d", "case study: pdf1d, pdf2d or md")
	mhz := fs.Float64("mhz", 150, "FPGA clock (MHz)")
	double := fs.Bool("double", false, "double-buffered overlap")
	gantt := fs.Bool("gantt", false, "print the activity timeline (first iterations)")
	obs := addObsFlags(fs)
	flts := addFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	plan, err2 := flts.plan()
	if err2 != nil {
		return err2
	}
	b := buffering(*double)
	var (
		sc    rcsim.Scenario
		tSoft float64
		err   error
	)
	switch *study {
	case "pdf1d":
		sc = pdf1d.Scenario(core.MHz(*mhz), b)
		tSoft = paper.PDF1DParams().Soft.TSoft
	case "pdf2d":
		sc = pdf2d.Scenario(core.MHz(*mhz), b)
		tSoft = paper.PDF2DParams().Soft.TSoft
	case "md":
		fmt.Fprintln(errOut, "ratsim: generating the 16384-molecule dataset...")
		sys := md.GenerateSystem(md.Molecules, 1)
		sc, err = md.Scenario(sys, core.MHz(*mhz), b)
		if err != nil {
			return err
		}
		tSoft = paper.MDTSoft
	default:
		return fmt.Errorf("%w: unknown case study %q", cli.ErrUsage, *study)
	}
	sc.Faults = plan
	var rec *trace.Recorder
	if *gantt {
		// Tracing 400 iterations is unreadable; run a short prefix
		// for the picture, then the full scenario for numbers.
		short := sc
		if short.Iterations > 4 {
			short.Iterations = 4
		}
		rec = &trace.Recorder{}
		short.Trace = rec
		if _, err := rcsim.Run(short); err != nil {
			return err
		}
	}
	stopProf, err := obs.startProfiles()
	if err != nil {
		return err
	}
	finish, err := obs.instrument(&sc)
	if err != nil {
		stopProf()
		return err
	}
	simStart := time.Now()
	m, err := rcsim.Run(sc)
	wall := time.Since(simStart)
	if ferr := finish(); err == nil {
		err = ferr
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "case %s on %s at %g MHz\n\n", *study, sc.Platform.Name, *mhz)
	printMeasurement(out, m, tSoft, rec, *gantt)
	if obs.metrics {
		return printMetrics(out, m, wall)
	}
	return nil
}

func cmdMicrobench(args []string, out io.Writer) error {
	fs := newFlagSet("microbench")
	plat := fs.String("platform", "nallatech", "platform name")
	sizesArg := fs.String("sizes", "256,512,1024,2048,4096,16384,65536,262144,1048576", "transfer sizes in bytes")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	p, ok := platform.ByName(*plat)
	if !ok {
		return fmt.Errorf("%w: unknown platform %q", cli.ErrUsage, *plat)
	}
	var sizes []int64
	for _, s := range strings.Split(*sizesArg, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("%w: bad -sizes entry %q (want positive byte counts)", cli.ErrUsage, s)
		}
		sizes = append(sizes, v)
	}
	ic := p.Interconnect
	tbl := report.Table{
		Title:   fmt.Sprintf("%s: %s (ideal %g MB/s)", p.Name, ic.Name, ic.IdealBps/1e6),
		Headers: []string{"Bytes", "write time", "alpha_write", "read time", "alpha_read"},
	}
	for _, s := range sizes {
		tbl.AddRow(fmt.Sprintf("%d", s),
			report.FormatSci(ic.TransferTime(platform.Write, s, false).Seconds()),
			fmt.Sprintf("%.3f", ic.MeasureAlpha(platform.Write, s)),
			report.FormatSci(ic.TransferTime(platform.Read, s, false).Seconds()),
			fmt.Sprintf("%.3f", ic.MeasureAlpha(platform.Read, s)))
	}
	return tbl.Render(out)
}

func cmdSynth(args []string, out io.Writer) error {
	fs := newFlagSet("synth")
	elements := fs.Int("elements", 4096, "input elements per iteration")
	outEls := fs.Int("out", 4096, "output elements per iteration")
	bytesPer := fs.Int("bytes", 4, "bytes per element")
	iters := fs.Int("iters", 10, "iterations")
	cycles := fs.Int64("cycles", 20000, "kernel cycles per iteration")
	mhz := fs.Float64("mhz", 100, "FPGA clock (MHz)")
	plat := fs.String("platform", "nallatech", "platform name")
	double := fs.Bool("double", false, "double-buffered overlap")
	devices := fs.Int("devices", 1, "FPGA count (multi-device fan-out)")
	gantt := fs.Bool("gantt", false, "print the activity timeline")
	obs := addObsFlags(fs)
	flts := addFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	plan, err := flts.plan()
	if err != nil {
		return err
	}
	p, ok := platform.ByName(*plat)
	if !ok {
		return fmt.Errorf("%w: unknown platform %q", cli.ErrUsage, *plat)
	}
	sc := rcsim.Scenario{
		Name:            "synthetic",
		Platform:        p,
		ClockHz:         core.MHz(*mhz),
		Buffering:       buffering(*double),
		Iterations:      *iters,
		ElementsIn:      *elements,
		ElementsOut:     *outEls,
		BytesPerElement: *bytesPer,
		KernelCycles:    func(int, int) int64 { return *cycles },
		Faults:          plan,
	}
	// Bad dimension flags are usage errors: validate before running so
	// they exit 2 with the usage text instead of 1.
	if *devices < 1 {
		return fmt.Errorf("%w: device count must be >= 1 (got %d)", cli.ErrUsage, *devices)
	}
	if *devices > 1 {
		ms := rcsim.MultiScenario{Scenario: sc, Devices: *devices, Topology: core.SharedChannel}
		if err := ms.Validate(); err != nil {
			return fmt.Errorf("%w: %w", cli.ErrUsage, err)
		}
	} else if err := sc.Validate(); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	if *gantt {
		sc.Trace = &trace.Recorder{}
	}
	stopProf, err := obs.startProfiles()
	if err != nil {
		return err
	}
	finish, err := obs.instrument(&sc)
	if err != nil {
		stopProf()
		return err
	}
	var m rcsim.Measurement
	simStart := time.Now()
	if *devices > 1 {
		m, err = rcsim.RunMulti(rcsim.MultiScenario{
			Scenario: sc, Devices: *devices, Topology: core.SharedChannel,
		})
	} else {
		m, err = rcsim.Run(sc)
	}
	wall := time.Since(simStart)
	if ferr := finish(); err == nil {
		err = ferr
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "synthetic scenario on %s at %g MHz (%d device(s))\n\n", p.Name, *mhz, *devices)
	printMeasurement(out, m, 0, sc.Trace, *gantt)
	if obs.metrics {
		return printMetrics(out, m, wall)
	}
	return nil
}
