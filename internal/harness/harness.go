// Package harness regenerates every table and figure of the paper's
// evaluation, printing the published values next to this
// reproduction's predicted and simulated ones. It is the engine behind
// the ratbench command and the repository's benchmark suite, and the
// source of the numbers recorded in EXPERIMENTS.md.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chrec/rat/internal/apps/md"
	"github.com/chrec/rat/internal/apps/pdf1d"
	"github.com/chrec/rat/internal/apps/pdf2d"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/methodology"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/platform"
	"github.com/chrec/rat/internal/precision"
	"github.com/chrec/rat/internal/rcsim"
	"github.com/chrec/rat/internal/report"
	"github.com/chrec/rat/internal/resource"
	"github.com/chrec/rat/internal/telemetry"
	"github.com/chrec/rat/internal/trace"
	"github.com/chrec/rat/internal/worksheet"
)

// Experiment is one regenerable artifact of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func() (string, error)
}

// metricsReg is where package-internal instrumentation (the MD-dataset
// cache) records; it defaults to the process-wide registry and is
// swappable so the ratbench CLI and tests can capture it.
var metricsReg atomic.Pointer[telemetry.Registry]

func init() { metricsReg.Store(telemetry.Default()) }

// SetRegistry redirects the harness's internal instrumentation to reg
// (ignored when nil).
func SetRegistry(reg *telemetry.Registry) {
	if reg != nil {
		metricsReg.Store(reg)
	}
}

// Metrics returns the registry the harness currently records into.
func Metrics() *telemetry.Registry { return metricsReg.Load() }

// RunWith executes the experiment and instruments the run: the
// harness.experiment.<id> gauge holds its wall-clock duration in
// seconds, and the harness.experiments_run /
// harness.experiments_failed counters accumulate pass/fail totals. A
// nil registry just runs.
func (e Experiment) RunWith(reg *telemetry.Registry) (string, error) {
	start := time.Now()
	text, err := e.Run()
	if reg != nil {
		reg.Gauge("harness.experiment." + e.ID).Set(time.Since(start).Seconds())
		reg.Counter("harness.experiments_run").Inc()
		if err != nil {
			reg.Counter("harness.experiments_failed").Inc()
		}
	}
	return text, err
}

// All returns every experiment: the paper artifacts in paper order,
// then the extension studies.
func All() []Experiment {
	return append([]Experiment{
		{"fig1", "Figure 1: RAT methodology flow", Figure1},
		{"fig2", "Figure 2: communication/computation overlap scenarios", Figure2},
		{"fig3", "Figure 3: architecture of the 1-D PDF algorithm", Figure3},
		{"table1", "Table 1: RAT input-parameter schema", Table1},
		{"table2", "Table 2: input parameters of 1-D PDF", Table2},
		{"table3", "Table 3: performance parameters of 1-D PDF", Table3},
		{"table4", "Table 4: resource usage of 1-D PDF (LX100)", Table4},
		{"table5", "Table 5: input parameters of 2-D PDF", Table5},
		{"table6", "Table 6: performance parameters of 2-D PDF", Table6},
		{"table7", "Table 7: resource usage of 2-D PDF (LX100)", Table7},
		{"table8", "Table 8: input parameters of MD", Table8},
		{"table9", "Table 9: performance parameters of MD", Table9},
		{"table10", "Table 10: resource usage of MD (EP2S180)", Table10},
		{"precision", "Section 4.2: numerical-format trade study", PrecisionStudy},
		{"solver", "Section 5.2: inverse solve of throughput_proc", InverseSolver},
		{"alphatable", "Section 4.2: interconnect microbenchmark alpha table", AlphaTable},
	}, extensions...)
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// mdDataset lazily builds the canonical MD system and its neighbour
// profile once per process (it costs a second or two).
var mdDataset = struct {
	once sync.Once
	sys  *md.System
	nb   []int
}{}

func mdSystem() (*md.System, []int) {
	hit := true
	mdDataset.once.Do(func() {
		hit = false
		Metrics().Counter("harness.md_dataset.cache_misses").Inc()
		mdDataset.sys = md.GenerateSystem(md.Molecules, 1)
		mdDataset.nb = md.NeighborCounts(mdDataset.sys)
	})
	if hit {
		Metrics().Counter("harness.md_dataset.cache_hits").Inc()
	}
	return mdDataset.sys, mdDataset.nb
}

// caseScenario builds a case study's single-buffered scenario at the
// paper's measured clock — the configuration of the "actual" columns.
func caseScenario(c paper.Case) (rcsim.Scenario, error) {
	row := paper.ActualRow(c)
	switch c {
	case paper.PDF1D:
		return pdf1d.Scenario(row.ClockHz, core.SingleBuffered), nil
	case paper.PDF2D:
		return pdf2d.Scenario(row.ClockHz, core.SingleBuffered), nil
	case paper.MD:
		sys, _ := mdSystem()
		return md.Scenario(sys, row.ClockHz, core.SingleBuffered)
	}
	return rcsim.Scenario{}, fmt.Errorf("harness: unknown case %v", c)
}

// measuredColumn runs the simulated platform for a case study at the
// paper's measured clock and converts the measurement to a column.
func measuredColumn(c paper.Case, tSoft float64) (report.PerfColumn, error) {
	row := paper.ActualRow(c)
	sc, err := caseScenario(c)
	if err != nil {
		return report.PerfColumn{}, err
	}
	m, err := rcsim.Run(sc)
	if err != nil {
		return report.PerfColumn{}, err
	}
	return report.PerfColumn{
		Header:   fmt.Sprintf("Simulated %g", row.ClockHz/1e6),
		TComm:    m.TComm(),
		TComp:    m.TComp(),
		UtilComm: m.UtilComm(),
		UtilComp: m.UtilComp(),
		TRC:      m.TRC(),
		Speedup:  m.Speedup(tSoft),
	}, nil
}

// paperColumn converts a published row into a column.
func paperColumn(r paper.Row) report.PerfColumn {
	hdr := fmt.Sprintf("Paper pred %g", r.ClockHz/1e6)
	if r.Actual {
		hdr = fmt.Sprintf("Paper meas %g", r.ClockHz/1e6)
		if r.Reconstructed {
			hdr += "*"
		}
	}
	return report.PerfColumn{
		Header: hdr, TComm: r.TComm, TComp: r.TComp,
		UtilComm: r.UtilComm, UtilComp: r.UtilComp,
		TRC: r.TRC, Speedup: r.Speedup,
	}
}

// performance builds the full three-way table for a case study: our
// predictions at the paper's clocks, the paper's predicted and
// measured cells, and the simulated-platform measurement.
func performance(c paper.Case, params core.Parameters, title string) (string, error) {
	var cols []report.PerfColumn
	for _, hz := range paper.ClocksHz {
		pr, err := core.Predict(params.WithClock(hz))
		if err != nil {
			return "", err
		}
		cols = append(cols, report.PredictionColumn(pr, core.SingleBuffered))
	}
	for _, r := range paper.PerformanceTable(c) {
		if r.Actual {
			cols = append(cols, paperColumn(r))
		}
	}
	mc, err := measuredColumn(c, params.Soft.TSoft)
	if err != nil {
		return "", err
	}
	cols = append(cols, mc)
	tbl := report.PerformanceTable(title, cols)
	note := "\nColumns: 'Predicted f' are this library's Eqs. 1-11; 'Paper meas f' is the published measured column\n" +
		"(* = reconstructed cells, see EXPERIMENTS.md); 'Simulated f' is the simulated RC platform standing in for the testbed.\n"
	return tbl.String() + note, nil
}

// inputs renders a worksheet next to the published one.
func inputs(params core.Parameters, published core.Parameters, title string) (string, error) {
	tbl := report.InputTable(params)
	out := tbl.String()
	if params != published {
		out += "\nWARNING: derived worksheet disagrees with the published Table!\n"
		pubTbl := report.InputTable(published)
		out += pubTbl.String()
	} else {
		out += "\n(derived worksheet matches the published table exactly)\n"
	}
	return out, nil
}

// resources renders our estimate next to the paper's table.
func resources(rep resource.Report, c paper.Case) string {
	rows := [][3]string{}
	for _, pubRow := range paper.ResourceTable(c) {
		name := pubRow.Resource
		pub := report.FormatPercent(pubRow.Utilization)
		if pubRow.Reconstructed {
			pub += "*"
		}
		var ours string
		for _, l := range rep.Lines {
			if l.DisplayName == name {
				ours = report.FormatPercent(l.Utilization)
			}
		}
		rows = append(rows, [3]string{name, pub, ours})
	}
	tbl := report.SideBySide(fmt.Sprintf("Resource usage (%s); * = reconstructed cell", rep.Device.Name), rows)
	out := tbl.String()
	if !rep.Fits {
		out += "DOES NOT FIT\n"
	}
	if len(rep.Warnings) > 0 {
		out += fmt.Sprintf("warnings: %v\n", rep.Warnings)
	}
	return out
}

// Figure1 walks the methodology flow through all four exit arcs using
// the 1-D PDF design.
func Figure1() (string, error) {
	var b strings.Builder
	demand, err := pdf1d.Design().ResourceDemand(resource.VirtexLX100, pdf1d.BatchElements, false)
	if err != nil {
		return "", err
	}
	design := methodology.Design{
		Params: paper.PDF1DParams(),
		Candidates: []precision.Candidate{
			{Label: "18-bit fixed", Width: 18, MaxError: 0.02, MulCost: resource.Demand{DSP: 1}},
			{Label: "32-bit fixed", Width: 32, MaxError: 0.002, MulCost: resource.Demand{DSP: 2}},
		},
		Demand: demand,
		Device: resource.VirtexLX100,
	}
	scenarios := []struct {
		label string
		req   methodology.Requirements
		mut   func(methodology.Design) methodology.Design
	}{
		{"PROCEED path (10x goal, 3% tolerance)",
			methodology.Requirements{TargetSpeedup: 10, Buffering: core.SingleBuffered, ErrorTolerance: 0.03},
			func(d methodology.Design) methodology.Design { return d }},
		{"insufficient computation throughput (20x goal)",
			methodology.Requirements{TargetSpeedup: 20, Buffering: core.SingleBuffered},
			func(d methodology.Design) methodology.Design { return d }},
		{"insufficient communication throughput (500x goal)",
			methodology.Requirements{TargetSpeedup: 500, Buffering: core.DoubleBuffered},
			func(d methodology.Design) methodology.Design { return d }},
		{"minimum precision unrealizable (1e-9 tolerance)",
			methodology.Requirements{TargetSpeedup: 5, Buffering: core.SingleBuffered, ErrorTolerance: 1e-9},
			func(d methodology.Design) methodology.Design { return d }},
		{"insufficient resources (200 pipelines)",
			methodology.Requirements{TargetSpeedup: 5, Buffering: core.SingleBuffered},
			func(d methodology.Design) methodology.Design {
				d.Demand = d.Demand.Scale(200)
				return d
			}},
	}
	for _, sc := range scenarios {
		out, err := methodology.Evaluate(sc.req, sc.mut(design))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s -> %v\n", sc.label, out.Verdict)
		for _, step := range out.Steps {
			mark := "pass"
			if !step.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(&b, "  [%s] %-10s %s\n", mark, step.Step, step.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Figure2 reproduces the three overlap timelines from simulation.
func Figure2() (string, error) {
	flat := platform.Link{Rate: []platform.RatePoint{{Bytes: 1, Bps: 1e9}, {Bytes: 1 << 30, Bps: 1e9}}}
	ideal := platform.Platform{
		Name: "ideal",
		Interconnect: platform.Interconnect{
			Name: "ideal-link", IdealBps: 1e9, WriteLink: flat, ReadLink: flat,
		},
	}
	base := rcsim.Scenario{
		Platform: ideal, ClockHz: 100e6,
		Iterations: 3, ElementsIn: 4000, ElementsOut: 4000, BytesPerElement: 1,
	}
	var b strings.Builder
	cases := []struct {
		label  string
		buf    core.Buffering
		cycles int64
	}{
		{"Single buffered", core.SingleBuffered, 800},
		{"Double buffered, computation bound", core.DoubleBuffered, 1600},
		{"Double buffered, communication bound", core.DoubleBuffered, 300},
	}
	for _, c := range cases {
		sc := base
		sc.Name = c.label
		sc.Buffering = c.buf
		sc.KernelCycles = func(int, int) int64 { return c.cycles }
		var rec trace.Recorder
		sc.Trace = &rec
		m, err := rcsim.Run(sc)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s (t_RC = %s, overlap = %s)\n", c.label, report.FormatSci(m.TRC()), report.FormatSci(rec.Overlap().Seconds()))
		b.WriteString(rec.Gantt(72))
		b.WriteByte('\n')
	}
	b.WriteString("Legend: W = host->FPGA input transfer, R = FPGA->host result transfer, C = compute.\n")
	return b.String(), nil
}

// Figure3 prints the 1-D PDF architecture and its cycle budget.
func Figure3() (string, error) {
	d := pdf1d.Design()
	var b strings.Builder
	b.WriteString(d.Describe())
	fmt.Fprintf(&b, "  batches of %d elements against %d bins (%d bins per pipeline)\n",
		pdf1d.BatchElements, pdf1d.Bins, pdf1d.BinsPerPipe)
	fmt.Fprintf(&b, "  cycles per batch: %d (fill %d, per-element %d, control %d)\n",
		d.CyclesForBatch(pdf1d.BatchElements), d.PipelineDepth,
		d.ItemCyclesPerElement()+int64(d.ElementStall), d.BatchOverhead)
	fmt.Fprintf(&b, "  sustained %.1f ops/cycle of the ideal %.0f (worksheet carries %.0f)\n",
		d.EffectiveThroughputProc(pdf1d.BatchElements), d.IdealThroughputProc(), d.WorksheetThroughputProc())
	return b.String(), nil
}

// Table1 prints the worksheet schema via the file format itself.
func Table1() (string, error) {
	var b strings.Builder
	b.WriteString("RAT input parameters (Table 1), as the worksheet file format:\n\n")
	if err := worksheet.Encode(&b, paper.PDF1DParams()); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Table2 compares the derived 1-D PDF worksheet with the published one.
func Table2() (string, error) {
	return inputs(pdf1d.Worksheet(), paper.PDF1DParams(), "Table 2")
}

// Table3 regenerates the 1-D PDF performance table.
func Table3() (string, error) {
	return performance(paper.PDF1D, paper.PDF1DParams(), "Performance parameters of 1-D PDF")
}

// Table4 regenerates the 1-D PDF resource table.
func Table4() (string, error) {
	rep, err := pdf1d.ResourceReport()
	if err != nil {
		return "", err
	}
	return resources(rep, paper.PDF1D), nil
}

// Table5 compares the derived 2-D PDF worksheet with the published one.
func Table5() (string, error) {
	return inputs(pdf2d.Worksheet(), paper.PDF2DParams(), "Table 5")
}

// Table6 regenerates the 2-D PDF performance table.
func Table6() (string, error) {
	return performance(paper.PDF2D, paper.PDF2DParams(), "Performance parameters of 2-D PDF")
}

// Table7 regenerates the 2-D PDF resource table.
func Table7() (string, error) {
	rep, err := pdf2d.ResourceReport()
	if err != nil {
		return "", err
	}
	return resources(rep, paper.PDF2D), nil
}

// Table8 compares the derived MD worksheet with the published one.
func Table8() (string, error) {
	return inputs(md.Worksheet(), paper.MDParams(), "Table 8")
}

// Table9 regenerates the MD performance table.
func Table9() (string, error) {
	return performance(paper.MD, paper.MDParams(), "Performance parameters of MD")
}

// Table10 regenerates the MD resource table.
func Table10() (string, error) {
	rep, err := md.ResourceReport()
	if err != nil {
		return "", err
	}
	return resources(rep, paper.MD), nil
}

// PrecisionStudy regenerates the Section 4.2 format trade study.
func PrecisionStudy() (string, error) {
	samples := pdf1d.GenerateSamples(8192, 3)
	bins := pdf1d.BinCenters(pdf1d.Bins)
	p := pdf1d.DefaultParams()
	ref := pdf1d.EstimateFloat(samples, bins, p)
	eval := func(width int) (float64, error) {
		cfg, err := pdf1d.ConfigForWidth(width)
		if err != nil {
			return 0, err
		}
		return precision.RelativeError(ref, pdf1d.EstimateFixed(samples, bins, p, cfg)), nil
	}
	var cands []precision.Candidate
	for _, w := range []int{12, 16, 18, 24, 32} {
		c, err := precision.FixedCandidate(resource.VirtexLX100, w, eval)
		if err != nil {
			return "", err
		}
		cands = append(cands, c)
	}
	f32Err := precision.RelativeError(ref, pdf1d.EstimateFloat32(samples, bins, p))
	cands = append(cands, precision.Float32Candidate(resource.VirtexLX100, f32Err))
	sort.Slice(cands, func(i, j int) bool { return cands[i].Width < cands[j].Width })

	tbl := report.Table{
		Title:   "Numerical format trade study (1-D PDF, tolerance 3%)",
		Headers: []string{"Format", "Max error", "DSPs/multiply", "Logic/multiply"},
	}
	for _, c := range cands {
		tbl.AddRow(c.Label, fmt.Sprintf("%.3f%%", c.MaxError*100),
			fmt.Sprintf("%d", c.MulCost.DSP), fmt.Sprintf("%d", c.MulCost.Logic))
	}
	chosen, notes, err := precision.Recommend(cands, 0.03)
	if err != nil {
		return "", err
	}
	out := tbl.String()
	out += fmt.Sprintf("\nchosen: %s (the paper chose 18-bit fixed for one 18x18 MAC per multiply)\n", chosen.Label)
	for _, n := range notes {
		out += "  " + n + "\n"
	}
	return out, nil
}

// InverseSolver regenerates the MD tuning-parameter story.
func InverseSolver() (string, error) {
	p := paper.MDParams().WithClock(core.MHz(100))
	need, err := core.SolveThroughputProc(p, 10, core.SingleBuffered)
	if err != nil {
		return "", err
	}
	rounded := 50.0
	pr := core.MustPredict(p.WithThroughputProc(rounded))
	return fmt.Sprintf(
		"MD at 100 MHz, 10x speedup goal:\n"+
			"  required throughput_proc = %.1f ops/cycle (Section 5.2: \"50 is the quantitative value computed by the equations\")\n"+
			"  worksheet carries the rounded-up %.0f -> predicted speedup %.1f (Table 9: 10.7)\n",
		need, rounded, pr.SpeedupSingle), nil
}

// AlphaTable regenerates the Section 4.2 microbenchmark sweep on the
// Nallatech platform.
func AlphaTable() (string, error) {
	ic := platform.NallatechH101().Interconnect
	sizes := []int64{256, 512, 1024, 2048, 4096, 16384, 65536, 262144, 1048576}
	tbl := report.Table{
		Title:   fmt.Sprintf("Measured alpha vs transfer size (%s, ideal %g MB/s)", ic.Name, ic.IdealBps/1e6),
		Headers: []string{"Bytes", "alpha_write", "alpha_read"},
	}
	for _, s := range sizes {
		tbl.AddRow(fmt.Sprintf("%d", s),
			fmt.Sprintf("%.3f", ic.MeasureAlpha(platform.Write, s)),
			fmt.Sprintf("%.3f", ic.MeasureAlpha(platform.Read, s)))
	}
	out := tbl.String()
	out += "\nThe worksheets carry the 2 KB row (0.37 / 0.16); the read collapse at large sizes\nis the root of the 2-D PDF study's 6x communication surprise.\n"
	return out, nil
}
