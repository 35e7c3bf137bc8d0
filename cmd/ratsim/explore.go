package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/chrec/rat/internal/cli"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/report"
	"github.com/chrec/rat/internal/telemetry"
	"github.com/chrec/rat/internal/worksheet"
)

// cmdExplore runs the design-space exploration engine over a grid
// described on the command line, around either a paper case study or a
// JSON worksheet.
func cmdExplore(args []string, out io.Writer) error {
	fs := newFlagSet("explore")
	study := fs.String("case", "pdf1d", "base worksheet: pdf1d, pdf2d or md")
	wsFile := fs.String("worksheet", "", "JSON worksheet file as the base (overrides -case)")
	clocks := fs.String("clocks", "", "clock axis in MHz, e.g. 75,100,150")
	tps := fs.String("tp", "", "throughput_proc axis (ops/cycle), e.g. 10,20,40")
	alphas := fs.String("alphas", "", "interconnect-efficiency axis in (0,1], e.g. 0.16,0.37")
	blocks := fs.String("blocks", "", "block-size axis (elements per iteration), e.g. 512,2048")
	devices := fs.String("devices", "", "device-count axis, e.g. 1,2,4")
	topo := fs.String("topology", "shared", "multi-FPGA topology: shared or independent")
	buf := fs.String("buffering", "both", "buffering axis: single, double or both")
	objective := fs.String("objective", "max-speedup", "ranking: max-speedup, min-trc or min-cost")
	minSpeedup := fs.Float64("min-speedup", 0, "feasibility: minimum predicted speedup")
	maxTRC := fs.Float64("max-trc", 0, "feasibility: maximum t_RC in seconds")
	maxUtilComm := fs.Float64("max-util-comm", 0, "feasibility: maximum communication utilization")
	maxDevices := fs.Int("max-devices", 0, "feasibility: maximum device count")
	top := fs.Int("top", 10, "how many best candidates to report")
	workers := fs.Int("workers", 0, "worker count (0 = all CPUs; any value gives identical results)")
	jsonl := fs.Bool("jsonl", false, "emit candidates as JSONL instead of a table")
	frontier := fs.Bool("frontier", false, "also report the Pareto frontier")
	metrics := fs.Bool("metrics", false, "print the engine's telemetry after the run")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}

	base, err := exploreBase(*study, *wsFile)
	if err != nil {
		return err
	}
	g := explore.Grid{Base: base}
	if g.Clocks, err = parseFloats(*clocks, "-clocks", core.MHz); err != nil {
		return err
	}
	if g.ThroughputProcs, err = parseFloats(*tps, "-tp", nil); err != nil {
		return err
	}
	if g.Alphas, err = parseFloats(*alphas, "-alphas", nil); err != nil {
		return err
	}
	if g.BlockSizes, err = parseInt64s(*blocks, "-blocks"); err != nil {
		return err
	}
	devs, err := parseInt64s(*devices, "-devices")
	if err != nil {
		return err
	}
	for _, d := range devs {
		g.Devices = append(g.Devices, int(d))
	}
	switch *topo {
	case "shared":
		g.Topology = core.SharedChannel
	case "independent":
		g.Topology = core.IndependentChannels
	default:
		return fmt.Errorf("%w: unknown topology %q (want shared or independent)", cli.ErrUsage, *topo)
	}
	switch *buf {
	case "both":
	case "single":
		g.Bufferings = []core.Buffering{core.SingleBuffered}
	case "double":
		g.Bufferings = []core.Buffering{core.DoubleBuffered}
	default:
		return fmt.Errorf("%w: unknown buffering %q (want single, double or both)", cli.ErrUsage, *buf)
	}

	obj, err := explore.ParseObjective(*objective)
	if err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	opts := explore.Options{
		Workers:   *workers,
		TopK:      *top,
		Objective: obj,
		Frontier:  *frontier,
		Constraints: explore.Constraints{
			MinSpeedup:  *minSpeedup,
			MaxTRC:      *maxTRC,
			MaxUtilComm: *maxUtilComm,
			MaxDevices:  *maxDevices,
		},
	}
	var reg *telemetry.Registry
	if *metrics {
		reg = telemetry.NewRegistry()
		opts.Metrics = reg
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}

	res, err := explore.Run(g, opts)
	if err != nil {
		return err
	}

	if *jsonl {
		if err := explore.WriteJSONL(out, "top", res.Top); err != nil {
			return err
		}
		if *frontier {
			if err := explore.WriteJSONL(out, "frontier", res.Frontier); err != nil {
				return err
			}
		}
	} else {
		fmt.Fprintf(out, "explored %d candidates (%d feasible) with %d workers in %v (%.3g candidates/s)\n\n",
			res.Evaluated, res.Feasible, res.Workers, res.Elapsed.Round(time.Microsecond), res.CandidatesPerSec)
		if err := renderCandidates(out, fmt.Sprintf("top %d by %s", len(res.Top), obj), res.Top); err != nil {
			return err
		}
		if *frontier {
			fmt.Fprintln(out)
			if err := renderCandidates(out, fmt.Sprintf("Pareto frontier (%d candidates)", len(res.Frontier)), res.Frontier); err != nil {
				return err
			}
		}
	}
	if reg != nil {
		fmt.Fprintln(out, "\nmetrics:")
		return telemetry.WriteText(out, reg.Snapshot())
	}
	return nil
}

// exploreBase resolves the grid's base worksheet from the flags.
func exploreBase(study, wsFile string) (core.Parameters, error) {
	if wsFile != "" {
		f, err := os.Open(wsFile)
		if err != nil {
			return core.Parameters{}, err
		}
		defer f.Close()
		p, err := worksheet.DecodeJSON(f)
		if err != nil {
			return core.Parameters{}, fmt.Errorf("worksheet %s: %w", wsFile, err)
		}
		// Fields that each validate can still overflow the worksheet's
		// own derived numbers: bad input data (exit 1), not a flag
		// mistake like an overflowing axis value.
		if err := (explore.Grid{Base: p}).Validate(); err != nil {
			return core.Parameters{}, fmt.Errorf("worksheet %s: %w", wsFile, err)
		}
		return p, nil
	}
	switch study {
	case "pdf1d":
		return paper.PDF1DParams(), nil
	case "pdf2d":
		return paper.PDF2DParams(), nil
	case "md":
		return paper.MDParams(), nil
	}
	return core.Parameters{}, fmt.Errorf("%w: unknown case study %q", cli.ErrUsage, study)
}

// parseFloats parses a comma-separated float list; empty means an
// unset axis. conv, when non-nil, converts each entry's unit.
func parseFloats(s, flagName string, conv func(float64) float64) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad %s entry %q", cli.ErrUsage, flagName, part)
		}
		if conv != nil {
			v = conv(v)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseInt64s parses a comma-separated integer list; empty means an
// unset axis.
func parseInt64s(s, flagName string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad %s entry %q", cli.ErrUsage, flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// renderCandidates prints candidates as a report table.
func renderCandidates(out io.Writer, title string, cands []explore.Candidate) error {
	tbl := report.Table{
		Title: title,
		Headers: []string{"#", "MHz", "tp", "alpha w/r", "block", "iters",
			"dev", "buffering", "t_RC", "speedup", "util c/c"},
	}
	for _, c := range cands {
		tbl.AddRow(
			fmt.Sprintf("%d", c.Index),
			fmt.Sprintf("%g", c.ClockHz/1e6),
			fmt.Sprintf("%g", c.ThroughputProc),
			fmt.Sprintf("%.2f/%.2f", c.AlphaWrite, c.AlphaRead),
			fmt.Sprintf("%d", c.ElementsIn),
			fmt.Sprintf("%d", c.Iterations),
			fmt.Sprintf("%d", c.Devices),
			c.Buffering.String(),
			report.FormatSci(c.TRC),
			fmt.Sprintf("%.2f", c.Speedup),
			fmt.Sprintf("%s/%s", report.FormatPercent(c.UtilComm), report.FormatPercent(c.UtilComp)),
		)
	}
	return tbl.Render(out)
}
