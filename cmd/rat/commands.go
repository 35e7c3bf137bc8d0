package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/chrec/rat/internal/cli"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/methodology"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/platform"
	"github.com/chrec/rat/internal/report"
	"github.com/chrec/rat/internal/resource"
	"github.com/chrec/rat/internal/validate"
	"github.com/chrec/rat/internal/worksheet"
)

// load reads and validates a worksheet file; .json files use the JSON
// form, everything else the text form.
func load(path string) (core.Parameters, error) {
	if path == "" {
		return core.Parameters{}, cli.Usagef("a worksheet file is required (-f)")
	}
	f, err := os.Open(path)
	if err != nil {
		return core.Parameters{}, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return worksheet.DecodeJSON(f)
	}
	return worksheet.Decode(f)
}

func buffering(double bool) core.Buffering {
	if double {
		return core.DoubleBuffered
	}
	return core.SingleBuffered
}

func parseClocks(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		mhz, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, cli.WrapUsage(fmt.Errorf("bad clock %q: %w", part, err))
		}
		out = append(out, core.MHz(mhz))
	}
	return out, nil
}

// newFlagSet builds a flag set that reports errors instead of exiting,
// so the command layer stays testable.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func cmdPredict(args []string, out io.Writer) error {
	fs := newFlagSet("predict")
	file := fs.String("f", "", "worksheet file")
	double := fs.Bool("double", false, "double-buffered overlap (default single)")
	clocks := fs.String("clocks", "", "comma-separated clock sweep in MHz (default: worksheet clock)")
	alphas := fs.String("alphas", "", "measured alpha-table file; re-derives the worksheet alphas at this design's transfer sizes")
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	p, err := load(*file)
	if err != nil {
		return err
	}
	if *alphas != "" {
		if err := applyAlphaTable(&p, *alphas, out); err != nil {
			return err
		}
	}
	hz := []float64{p.Comp.ClockHz}
	if *clocks != "" {
		if hz, err = parseClocks(*clocks); err != nil {
			return err
		}
	}
	b := buffering(*double)
	in := report.InputTable(p)
	if err := in.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	var cols []report.PerfColumn
	for _, f := range hz {
		pr, err := core.Predict(p.WithClock(f))
		if err != nil {
			return err
		}
		cols = append(cols, report.PredictionColumn(pr, b))
	}
	tbl := report.PerformanceTable(fmt.Sprintf("Predicted performance (%v)", b), cols)
	if err := tbl.Render(out); err != nil {
		return err
	}
	pr, err := core.Predict(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nasymptotic speedup limit (communication bound): %.1f\n", pr.MaxSpeedup())
	if fc, err := core.CrossoverClock(p); err == nil {
		fmt.Fprintf(out, "comm/compute crossover clock: %.0f MHz\n", fc/1e6)
	}
	return nil
}

// applyAlphaTable replaces the worksheet's alphas with values from a
// measured tabulation (docs/FORMATS.md), evaluated at the worksheet's
// own per-iteration transfer sizes — the discipline whose absence cost
// the 2-D PDF study a 6x communication surprise. Measured rates beyond
// the documented bandwidth clamp to alpha = 1.
func applyAlphaTable(p *core.Parameters, path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	pts, err := platform.LoadAlphaTable(f)
	if err != nil {
		return err
	}
	ic, err := platform.InterconnectFromTable("measured", p.Comm.IdealThroughput, pts)
	if err != nil {
		return err
	}
	clamp := func(a float64) float64 {
		if a > 1 {
			return 1
		}
		return a
	}
	p.Comm.AlphaWrite = clamp(ic.MeasureAlpha(platform.Write, int64(p.BytesIn())))
	if p.Dataset.ElementsOut > 0 {
		p.Comm.AlphaRead = clamp(ic.MeasureAlpha(platform.Read, int64(p.BytesOut())))
	}
	fmt.Fprintf(out, "alphas from %s at %d/%d-byte transfers: %.3f write, %.3f read\n\n",
		path, int64(p.BytesIn()), int64(p.BytesOut()), p.Comm.AlphaWrite, p.Comm.AlphaRead)
	return nil
}

func cmdSolve(args []string, out io.Writer) error {
	fs := newFlagSet("solve")
	file := fs.String("f", "", "worksheet file")
	target := fs.Float64("target", 0, "speedup goal")
	what := fs.String("for", "throughput", "free variable: throughput, clock or alpha")
	double := fs.Bool("double", false, "double-buffered overlap")
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	p, err := load(*file)
	if err != nil {
		return err
	}
	b := buffering(*double)
	switch *what {
	case "throughput":
		v, err := core.SolveThroughputProc(p, *target, b)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "required throughput_proc: %.2f ops/cycle (worksheet has %g)\n", v, p.Comp.ThroughputProc)
	case "clock":
		v, err := core.SolveClock(p, *target, b)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "required f_clock: %.1f MHz (worksheet has %g)\n", v/1e6, p.Comp.ClockHz/1e6)
	case "alpha":
		v, err := core.SolveAlpha(p, *target, b)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "required alpha (both directions): %.3f", v)
		if v > 1 {
			fmt.Fprintf(out, " — infeasible on this interconnect")
		}
		fmt.Fprintln(out)
	default:
		return cli.Usagef("unknown solve variable %q (want throughput, clock or alpha)", *what)
	}
	return nil
}

func cmdSweep(args []string, out io.Writer) error {
	fs := newFlagSet("sweep")
	file := fs.String("f", "", "worksheet file")
	minMHz := fs.Float64("min", 50, "lowest clock (MHz)")
	maxMHz := fs.Float64("max", 200, "highest clock (MHz)")
	steps := fs.Int("steps", 7, "number of sweep points")
	double := fs.Bool("double", false, "double-buffered overlap")
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	if *steps < 2 || !(*maxMHz > *minMHz) {
		return cli.Usagef("need -steps >= 2 and -max > -min")
	}
	p, err := load(*file)
	if err != nil {
		return err
	}
	b := buffering(*double)
	var clocks []float64
	for i := 0; i < *steps; i++ {
		mhz := *minMHz + (*maxMHz-*minMHz)*float64(i)/float64(*steps-1)
		clocks = append(clocks, core.MHz(mhz))
	}
	pts, err := core.SweepPoints(p, clocks, func(q core.Parameters, v float64) core.Parameters {
		return q.WithClock(v)
	})
	if err != nil {
		return err
	}
	tbl := report.Table{
		Title:   fmt.Sprintf("Clock sweep (%v)", b),
		Headers: []string{"f_clk (MHz)", "t_comp (sec)", "t_RC (sec)", "speedup", "regime"},
	}
	for _, pt := range pts {
		regime := "compute-bound"
		if pt.Prediction.CommunicationBound() {
			regime = "comm-bound"
		}
		tbl.AddRow(fmt.Sprintf("%.0f", pt.Value/1e6),
			report.FormatSci(pt.Prediction.TComp),
			report.FormatSci(pt.Prediction.TRC(b)),
			report.FormatSpeedup(pt.Prediction.Speedup(b)),
			regime)
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	if bracket, ok := core.FindCrossover(pts); ok {
		fmt.Fprintf(out, "\nregime crossover between %.0f and %.0f MHz\n", bracket[0].Value/1e6, bracket[1].Value/1e6)
	}
	return nil
}

func cmdBounds(args []string, out io.Writer) error {
	fs := newFlagSet("bounds")
	file := fs.String("f", "", "worksheet file")
	alpha := fs.Float64("alpha", 0.2, "relative uncertainty of both alphas")
	ops := fs.Float64("ops", 0.1, "relative uncertainty of N_ops/element")
	proc := fs.Float64("proc", 0.25, "relative uncertainty of throughput_proc")
	clock := fs.Float64("clock", 1.0/3.0, "relative uncertainty of f_clock")
	tsoft := fs.Float64("tsoft", 0.05, "relative uncertainty of t_soft")
	target := fs.Float64("target", 0, "optional speedup goal to classify")
	double := fs.Bool("double", false, "double-buffered overlap")
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	u := core.Uncertainty{
		Alpha: *alpha, OpsPerElement: *ops, ThroughputProc: *proc, Clock: *clock, TSoft: *tsoft,
	}
	if err := u.Validate(); err != nil {
		return cli.WrapUsage(err)
	}
	p, err := load(*file)
	if err != nil {
		return err
	}
	b := buffering(*double)
	bounds, err := core.PredictBounds(p, u)
	if err != nil {
		return err
	}
	lo, hi := bounds.SpeedupRange(b)
	tlo, thi := bounds.TRCRange(b)
	fmt.Fprintf(out, "speedup: %.1f .. %.1f (nominal %.1f)\n", lo, hi, bounds.Nominal.Speedup(b))
	fmt.Fprintf(out, "t_RC:    %s .. %s s (nominal %s)\n",
		report.FormatSci(tlo), report.FormatSci(thi), report.FormatSci(bounds.Nominal.TRC(b)))
	if *target > 0 {
		fmt.Fprintf(out, "%gx goal: %v\n", *target, bounds.MeetsTarget(*target, b))
	}
	return nil
}

func cmdMulti(args []string, out io.Writer) error {
	fs := newFlagSet("multi")
	file := fs.String("f", "", "worksheet file")
	devices := fs.Int("devices", 8, "maximum device count to tabulate")
	independent := fs.Bool("independent", false, "one interconnect per device (default: shared channel)")
	double := fs.Bool("double", false, "double-buffered overlap")
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	if *devices < 1 {
		return cli.Usagef("need -devices >= 1")
	}
	p, err := load(*file)
	if err != nil {
		return err
	}
	topo := core.SharedChannel
	if *independent {
		topo = core.IndependentChannels
	}
	b := buffering(*double)
	knee, err := core.ScalingKnee(p)
	if err != nil {
		return err
	}
	tbl := report.Table{
		Title:   fmt.Sprintf("Multi-FPGA scaling (%v, %v; shared-channel knee at %.1f devices)", topo, b, knee),
		Headers: []string{"Devices", "t_RC (sec)", "speedup", "efficiency"},
	}
	for n := 1; n <= *devices; n *= 2 {
		mp, err := core.PredictMulti(p, core.MultiConfig{Devices: n, Topology: topo})
		if err != nil {
			return err
		}
		trc, sp := mp.TRCSingle, mp.SpeedupSingle
		if b == core.DoubleBuffered {
			trc, sp = mp.TRCDouble, mp.SpeedupDouble
		}
		tbl.AddRow(fmt.Sprintf("%d", n), report.FormatSci(trc),
			report.FormatSpeedup(sp), fmt.Sprintf("%.2f", mp.ScalingEfficiency))
	}
	return tbl.Render(out)
}

func cmdCheck(args []string, out io.Writer) (verdictFail bool, err error) {
	fs := newFlagSet("check")
	file := fs.String("f", "", "worksheet file")
	target := fs.Float64("target", 0, "speedup goal")
	double := fs.Bool("double", false, "double-buffered overlap")
	device := fs.String("device", "", "target FPGA (see 'rat devices')")
	dsp := fs.Int("dsp", 0, "estimated DSP/multiplier demand")
	bram := fs.Int("bram", 0, "estimated BRAM demand")
	logic := fs.Int("logic", 0, "estimated logic demand")
	tol := fs.Float64("tol", 0, "numerical error tolerance (0 skips the precision test)")
	if err := fs.Parse(args); err != nil {
		return false, cli.WrapUsage(err)
	}
	p, err := load(*file)
	if err != nil {
		return false, err
	}
	dev, ok := resource.Lookup(*device)
	if !ok {
		return false, cli.Usagef("unknown device %q (see 'rat devices')", *device)
	}
	res, err := methodology.Evaluate(methodology.Requirements{
		TargetSpeedup:  *target,
		Buffering:      buffering(*double),
		ErrorTolerance: *tol,
	}, methodology.Design{
		Params: p,
		Demand: resource.Demand{DSP: *dsp, BRAM: *bram, Logic: *logic},
		Device: dev,
	})
	if err != nil {
		return false, err
	}
	for _, s := range res.Steps {
		mark := "pass"
		if !s.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(out, "[%s] %-10s %s\n", mark, s.Step, s.Detail)
	}
	fmt.Fprintf(out, "verdict: %v\n", res.Verdict)
	return res.Verdict != methodology.Proceed, nil
}

func cmdProject(args []string, out io.Writer) error {
	fs := newFlagSet("project")
	file := fs.String("f", "", "project file (JSON)")
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	if *file == "" {
		return cli.Usagef("a project file is required (-f)")
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()
	name, stages, err := worksheet.DecodeProject(f)
	if err != nil {
		return err
	}
	res, err := core.PredictComposite(stages)
	if err != nil {
		return err
	}
	if name == "" {
		name = *file
	}
	tbl := report.Table{
		Title:   fmt.Sprintf("Composite analysis: %s", name),
		Headers: []string{"Stage", "Buffering", "t_RC (sec)", "Share", "Speedup alone"},
	}
	for _, st := range res.Stages {
		tbl.AddRow(st.Stage.Name, st.Stage.Buffering.String(),
			report.FormatSci(st.TRC), report.FormatPercent(st.Share),
			report.FormatSpeedup(st.Prediction.Speedup(st.Stage.Buffering)))
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "\ncomposite: t_RC %s s, t_soft %g s, speedup %.1f\n",
		report.FormatSci(res.TRC), res.TSoft, res.Speedup)
	fmt.Fprintf(out, "bottleneck: %s (%.0f%% of execution) — reformulate that stage first\n",
		res.Bottleneck().Stage.Name, res.Bottleneck().Share*100)
	return nil
}

func cmdValidate(args []string, out io.Writer) error {
	fs := newFlagSet("validate")
	file := fs.String("f", "", "worksheet file")
	comm := fs.Float64("comm", 0, "measured per-iteration communication time (s)")
	comp := fs.Float64("comp", 0, "measured per-iteration computation time (s)")
	trc := fs.Float64("trc", 0, "measured end-to-end time (s; 0 derives from components)")
	double := fs.Bool("double", false, "double-buffered overlap")
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	p, err := load(*file)
	if err != nil {
		return err
	}
	pr, err := core.Predict(p)
	if err != nil {
		return err
	}
	a, err := validate.Compare(pr, validate.Measured{TComm: *comm, TComp: *comp, TRC: *trc}, buffering(*double))
	if errors.Is(err, validate.ErrBadMeasurement) {
		return cli.WrapUsage(err) // the measurements are flags
	}
	if err != nil {
		return err
	}
	tbl := report.Table{
		Title:   "Prediction vs measurement",
		Headers: []string{"Term", "Predicted", "Measured", "Error", "Verdict"},
	}
	for _, term := range a.Terms {
		tbl.AddRow(term.Name,
			report.FormatSci(term.Predicted), report.FormatSci(term.Measured),
			fmt.Sprintf("%+.0f%%", term.Error*100), term.Verdict.String())
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	if a.SpeedupPredicted > 0 {
		fmt.Fprintf(out, "\nspeedup: %.1f predicted, %.1f measured\n", a.SpeedupPredicted, a.SpeedupMeasured)
	}
	fmt.Fprintln(out, "\ndiagnosis:")
	for _, n := range a.Notes {
		fmt.Fprintf(out, "  - %s\n", n)
	}
	return nil
}

func cmdExample(out io.Writer) error {
	return worksheet.Encode(out, paper.PDF1DParams())
}

func cmdDevices(out io.Writer) error {
	tbl := report.Table{
		Title:   "FPGA device database",
		Headers: []string{"Device", "Vendor", "Logic", "BRAM blocks", "DSP units"},
	}
	for _, d := range resource.Devices() {
		tbl.AddRow(d.Name, string(d.Vendor),
			fmt.Sprintf("%d %s", d.LogicCells, d.LogicName),
			fmt.Sprintf("%d x %d kbit", d.BRAMBlocks, d.BRAMBits/1024),
			fmt.Sprintf("%d %s", d.DSPBlocks, d.DSPName))
	}
	return tbl.Render(out)
}
