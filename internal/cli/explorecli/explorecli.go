// Package explorecli is the command-line front end of a design-space
// exploration, shared by ratsim explore (a local run) and ratctl
// explore (a fleet run): one set of grid, ranking and output flags,
// the api.ExploreJob they describe, prepared through the path every
// explore surface takes (api.ExploreRequest.Prepare), and the table
// and JSONL renderings of a result. The JSONL lines are ratd's own
// ?stream=jsonl candidate lines. Both commands therefore accept and
// refuse the same command lines with the same exit codes, and ratd
// answers the same request with the same candidates or the same 400.
package explorecli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/cli"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/report"
	"github.com/chrec/rat/internal/telemetry"
	"github.com/chrec/rat/internal/wire"
	"github.com/chrec/rat/internal/worksheet"
)

// Flags are an explore command's grid, ranking and output flags. Most
// of them set a field of the request directly.
type Flags struct {
	req                    api.ExploreRequest
	study, path, buffering string
	jsonl                  bool
	objective              explore.Objective // set by Request
}

// Register defines the flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	r := &f.req
	fs.StringVar(&f.study, "case", "pdf1d", "base worksheet: pdf1d, pdf2d or md")
	fs.StringVar(&f.path, "worksheet", "", "JSON worksheet file as the base (overrides -case)")
	fs.Var(list[float64]{&r.ClocksMHz, parseFloat}, "clocks", "clock axis in MHz, e.g. 75,100,150")
	fs.Var(list[float64]{&r.ThroughputProcs, parseFloat}, "tp", "throughput_proc axis (ops/cycle), e.g. 10,20,40")
	fs.Var(list[float64]{&r.Alphas, parseFloat}, "alphas", "interconnect-efficiency axis in (0,1], e.g. 0.16,0.37")
	fs.Var(list[int64]{&r.BlockSizes, parseInt64}, "blocks", "block-size axis (elements per iteration), e.g. 512,2048")
	fs.Var(list[int]{&r.Devices, strconv.Atoi}, "devices", "device-count axis, e.g. 1,2,4")
	fs.StringVar(&r.Topology, "topology", "shared", "multi-FPGA topology: shared or independent")
	fs.StringVar(&f.buffering, "buffering", "both", "buffering axis: single, double or both")
	fs.StringVar(&r.Objective, "objective", "max-speedup", "ranking: max-speedup, min-trc or min-cost")
	fs.Float64Var(&r.MinSpeedup, "min-speedup", 0, "feasibility: minimum predicted speedup")
	fs.Float64Var(&r.MaxTRCSeconds, "max-trc", 0, "feasibility: maximum t_RC in seconds")
	fs.Float64Var(&r.MaxUtilComm, "max-util-comm", 0, "feasibility: maximum communication utilization")
	fs.IntVar(&r.MaxDevices, "max-devices", 0, "feasibility: maximum device count")
	fs.IntVar(&r.TopK, "top", 10, "how many best candidates to report")
	fs.BoolVar(&f.jsonl, "jsonl", false, "emit candidates as JSONL instead of a table")
	fs.BoolVar(&r.Frontier, "frontier", false, "also report the Pareto frontier")
	return f
}

// Request builds the explore request the parsed flags describe and
// prepares it with the given engine worker count. The job's request
// carries the axes as written (clocks in MHz), so a fleet compiles the
// grid a local run compiles. A base worksheet file that cannot be
// read, or whose own numbers are invalid or overflow, is bad input
// data (exit 1); every other refusal is a usage error (exit 2), raised
// before any work is done or any worker is contacted.
func (f *Flags) Request(workers int) (api.ExploreJob, error) {
	req := f.req
	var err error
	if req.Worksheet, err = base(f.study, f.path); err != nil {
		return api.ExploreJob{}, err
	}
	if f.buffering != "both" {
		req.Bufferings = []string{f.buffering}
	}
	job, err := req.Prepare(workers)
	if err != nil {
		return api.ExploreJob{}, cli.WrapUsage(err)
	}
	f.objective = job.Options.Objective
	return job, nil
}

// JSONL reports whether -jsonl was given.
func (f *Flags) JSONL() bool { return f.jsonl }

// Print writes a result the way both commands print it: with -jsonl
// the top candidates and then the frontier as the lines of ratd's
// ?stream=jsonl, without its summary line, whose elapsed time differs
// from run to run; otherwise a summary line, whose worker count reads
// "<how> N workers", then the top-K table and the frontier table. A
// candidate that cannot be rendered is an error after the lines before
// it, never a silently shorter stream.
func (f *Flags) Print(out io.Writer, res explore.Result, how string) error {
	if f.jsonl {
		lines, err := wire.AppendCandidateLines(nil, "top", res.Top)
		if err == nil && f.req.Frontier {
			lines, err = wire.AppendCandidateLines(lines, "frontier", res.Frontier)
		}
		if _, werr := out.Write(lines); werr != nil {
			return werr
		}
		return err
	}
	fmt.Fprintf(out, "explored %d candidates (%d feasible) %s %d workers in %v (%.3g candidates/s)\n\n",
		res.Evaluated, res.Feasible, how, res.Workers, res.Elapsed.Round(time.Microsecond), res.CandidatesPerSec)
	if err := table(out, fmt.Sprintf("top %d by %s", len(res.Top), f.objective), res.Top); err != nil {
		return err
	}
	if !f.req.Frontier {
		return nil
	}
	fmt.Fprintln(out)
	return table(out, fmt.Sprintf("Pareto frontier (%d candidates)", len(res.Frontier)), res.Frontier)
}

// PrintMetrics writes the -metrics block of a run's registry, when
// there is one: after the tables on out, or on errOut in -jsonl mode,
// so that stdout holds only JSONL lines.
func (f *Flags) PrintMetrics(out, errOut io.Writer, reg *telemetry.Registry) error {
	if reg == nil {
		return nil
	}
	if f.jsonl {
		out = errOut
	}
	fmt.Fprintln(out, "\nmetrics:")
	return telemetry.WriteText(out, reg.Snapshot())
}

// base resolves the grid's base worksheet: a JSON worksheet file, kept
// exactly as written, or a paper case study.
func base(study, path string) (worksheet.Doc, error) {
	if path == "" {
		switch study {
		case "pdf1d":
			return worksheet.DocFromParams(paper.PDF1DParams()), nil
		case "pdf2d":
			return worksheet.DocFromParams(paper.PDF2DParams()), nil
		case "md":
			return worksheet.DocFromParams(paper.MDParams()), nil
		}
		return worksheet.Doc{}, cli.Usagef("unknown case study %q", study)
	}
	file, err := os.Open(path)
	if err != nil {
		return worksheet.Doc{}, err
	}
	defer file.Close()
	doc, err := worksheet.DecodeDoc(file)
	if err == nil {
		// Fields that each validate can still overflow the worksheet's
		// own derived numbers: bad input data, not a flag mistake like
		// an overflowing axis value.
		err = explore.Grid{Base: doc.Params()}.Validate()
	}
	if err != nil {
		return worksheet.Doc{}, fmt.Errorf("worksheet %s: %w", path, err)
	}
	return doc, nil
}

// list is a comma-separated axis flag; left unset, the axis keeps the
// base worksheet's value.
type list[T any] struct {
	axis  *[]T
	parse func(string) (T, error)
}

func (l list[T]) String() string { return "" }

func (l list[T]) Set(s string) error {
	*l.axis = nil
	if s == "" {
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		v, err := l.parse(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad entry %q", part)
		}
		*l.axis = append(*l.axis, v)
	}
	return nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
func parseInt64(s string) (int64, error)   { return strconv.ParseInt(s, 10, 64) }

// table prints candidates as a report table.
func table(out io.Writer, title string, cands []explore.Candidate) error {
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
