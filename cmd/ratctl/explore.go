package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/chrec/rat/client"
	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/cli"
	"github.com/chrec/rat/internal/cluster"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/report"
	"github.com/chrec/rat/internal/telemetry"
	"github.com/chrec/rat/internal/worksheet"
)

// cmdExplore shards a design-space exploration across a ratd fleet
// and prints the merged result. The output is byte-identical with a
// single-node `ratsim explore` over the same grid: candidates go to
// out, while fleet bookkeeping (the summary line in -jsonl mode, the
// shard statistics) goes to errOut so pipelines can diff out alone.
func cmdExplore(args []string, out, errOut io.Writer) error {
	fs := newFlagSet("explore")
	workersFlag := fs.String("workers", "", "comma-separated ratd base URLs (required)")
	via := fs.String("via", "", "delegate coordination to this ratd via POST /v1/explore/distributed")
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
	jsonl := fs.Bool("jsonl", false, "emit candidates as JSONL instead of a table")
	frontier := fs.Bool("frontier", false, "also report the Pareto frontier")
	shardSize := fs.Uint64("shard-size", 0, "candidates per shard (0 = auto)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrent shards per worker (0 = default)")
	shardTimeout := fs.Duration("shard-timeout", 30*time.Second, "per-shard deadline before re-dispatch")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall run deadline")
	key := fs.String("key", "", "API key sent to every worker (Authorization: Bearer)")
	metrics := fs.Bool("metrics", false, "print the coordinator's telemetry after the run")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	urls, err := workerURLs(*workersFlag)
	if err != nil {
		return err
	}

	req, err := buildRequest(exploreGridFlags{
		study: *study, wsFile: *wsFile, clocks: *clocks, tps: *tps,
		alphas: *alphas, blocks: *blocks, devices: *devices, topo: *topo,
		buf: *buf, objective: *objective, minSpeedup: *minSpeedup,
		maxTRC: *maxTRC, maxUtilComm: *maxUtilComm, maxDevices: *maxDevices,
		top: *top, frontier: *frontier,
	})
	if err != nil {
		return err
	}

	//rat:allow-wallclock CLI deadline for the whole fleet run
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var (
		res    explore.Result
		cstats api.ClusterStats
		reg    *telemetry.Registry
		runErr error
	)
	if *metrics {
		reg = telemetry.NewRegistry()
	}
	if *via != "" {
		res, cstats, runErr = runVia(ctx, *via, urls, req, *shardSize, *maxInflight, *shardTimeout, *key)
	} else {
		res, cstats, runErr = runFleet(ctx, urls, req, *shardSize, *maxInflight, *shardTimeout, *key, reg)
	}
	if runErr != nil {
		return runErr
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
		fmt.Fprintf(errOut, "ratctl: explored %d candidates (%d feasible) across %d workers in %v\n",
			res.Evaluated, res.Feasible, cstats.Workers, res.Elapsed.Round(time.Millisecond))
	} else {
		fmt.Fprintf(out, "explored %d candidates (%d feasible) across %d workers in %v (%.3g candidates/s)\n\n",
			res.Evaluated, res.Feasible, cstats.Workers, res.Elapsed.Round(time.Microsecond), res.CandidatesPerSec)
		title := fmt.Sprintf("top %d by %s", len(res.Top), req.Objective)
		if err := renderCandidates(out, title, res.Top); err != nil {
			return err
		}
		if *frontier {
			fmt.Fprintln(out)
			if err := renderCandidates(out, fmt.Sprintf("Pareto frontier (%d candidates)", len(res.Frontier)), res.Frontier); err != nil {
				return err
			}
		}
		fmt.Fprintln(out)
		renderCluster(out, cstats)
	}
	if reg != nil {
		fmt.Fprintln(out, "\nmetrics:")
		return telemetry.WriteText(out, reg.Snapshot())
	}
	return nil
}

// runFleet coordinates the exploration locally: one typed client per
// worker URL, internal/cluster scheduling shards across them.
func runFleet(ctx context.Context, urls []string, req api.ExploreRequest,
	shardSize uint64, maxInflight int, shardTimeout time.Duration,
	key string, reg *telemetry.Registry) (explore.Result, api.ClusterStats, error) {

	remotes := make([]cluster.Remote, 0, len(urls))
	for _, u := range urls {
		remotes = append(remotes, cluster.Remote{Name: u, W: newWorkerClient(u, key, shardTimeout)})
	}
	coord, err := cluster.New(cluster.Config{
		Workers:      remotes,
		ShardSize:    shardSize,
		MaxInflight:  maxInflight,
		ShardTimeout: shardTimeout,
		Metrics:      reg,
	})
	if err != nil {
		return explore.Result{}, api.ClusterStats{}, err
	}
	res, stats, err := coord.Run(ctx, req)
	if err != nil {
		return explore.Result{}, api.ClusterStats{}, err
	}
	return res, stats.API(), nil
}

// runVia delegates coordination to a ratd's /v1/explore/distributed
// endpoint, then re-derives the exact candidates locally from the
// returned indices: the wire form rounds ClockHz through MHz, so
// printing wire floats could diverge from a local run in the last
// bit. Re-evaluating the same indices against the same grid cannot.
func runVia(ctx context.Context, via string, urls []string, req api.ExploreRequest,
	shardSize uint64, maxInflight int, shardTimeout time.Duration,
	key string) (explore.Result, api.ClusterStats, error) {

	// The coordinator call spans the whole fleet run, so unlike the
	// per-worker clients it gets no transport timeout of its own: the
	// ctx deadline (-timeout) bounds it.
	copts := []client.Option{
		client.WithRetryPolicy(client.RetryPolicy{MaxRetries: 1, Backoff: 50 * time.Millisecond}),
	}
	if key != "" {
		copts = append(copts, client.WithAPIKey(key))
	}
	c := client.New(via, copts...)
	resp, err := c.ExploreDistributed(ctx, api.DistributedExploreRequest{
		Explore:             req,
		Workers:             urls,
		ShardSize:           shardSize,
		MaxInflight:         maxInflight,
		ShardTimeoutSeconds: shardTimeout.Seconds(),
	})
	if err != nil {
		return explore.Result{}, api.ClusterStats{}, err
	}

	g, err := req.Grid()
	if err != nil {
		return explore.Result{}, api.ClusterStats{}, err
	}
	opts, err := req.Options(0)
	if err != nil {
		return explore.Result{}, api.ClusterStats{}, err
	}
	res := explore.Result{
		Evaluated:        resp.Evaluated,
		Feasible:         resp.Feasible,
		Workers:          resp.Workers,
		Elapsed:          time.Duration(resp.ElapsedSeconds * float64(time.Second)),
		CandidatesPerSec: resp.CandidatesPerSec,
	}
	if res.Top, err = candidatesAt(g, opts.Constraints, resp.Top); err != nil {
		return explore.Result{}, api.ClusterStats{}, err
	}
	if res.Frontier, err = candidatesAt(g, opts.Constraints, resp.Frontier); err != nil {
		return explore.Result{}, api.ClusterStats{}, err
	}
	return res, resp.Cluster, nil
}

// candidatesAt re-evaluates the wire candidates' indices on the local
// grid, preserving the response ordering.
func candidatesAt(g explore.Grid, cons explore.Constraints, wire []api.Candidate) ([]explore.Candidate, error) {
	if len(wire) == 0 {
		return nil, nil
	}
	indices := make([]uint64, len(wire))
	for i, c := range wire {
		indices[i] = c.Index
	}
	evaled, err := explore.EvalIndices(g, cons, indices)
	if err != nil {
		return nil, err
	}
	byIndex := make(map[uint64]explore.Candidate, len(evaled))
	for _, c := range evaled {
		byIndex[c.Index] = c
	}
	out := make([]explore.Candidate, 0, len(wire))
	for _, w := range wire {
		c, ok := byIndex[w.Index]
		if !ok {
			return nil, fmt.Errorf("candidate %d from the coordinator fails the constraints locally (grid mismatch?)", w.Index)
		}
		out = append(out, c)
	}
	return out, nil
}

// newWorkerClient builds the typed client used for one fleet member.
// Retries stay light (the coordinator already re-dispatches failed
// shards) and the HTTP timeout leaves headroom over the shard
// deadline so the coordinator, not the transport, decides stragglers.
func newWorkerClient(u, key string, shardTimeout time.Duration) *client.Client {
	opts := []client.Option{
		client.WithRetryPolicy(client.RetryPolicy{MaxRetries: 1, Backoff: 50 * time.Millisecond}),
		client.WithHTTPClient(&http.Client{Timeout: shardTimeout + 30*time.Second}),
	}
	if key != "" {
		opts = append(opts, client.WithAPIKey(key))
	}
	return client.New(u, opts...)
}

// workerURLs splits and validates the -workers flag.
func workerURLs(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("%w: -workers is required", cli.ErrUsage)
	}
	var urls []string
	for _, part := range strings.Split(s, ",") {
		u := strings.TrimSpace(part)
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("%w: worker %q is not an http(s) URL", cli.ErrUsage, u)
		}
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("%w: -workers is required", cli.ErrUsage)
	}
	return urls, nil
}

// exploreGridFlags carries the parsed grid flags to buildRequest.
type exploreGridFlags struct {
	study, wsFile, clocks, tps, alphas, blocks, devices string
	topo, buf, objective                                string
	minSpeedup, maxTRC, maxUtilComm                     float64
	maxDevices, top                                     int
	frontier                                            bool
}

// buildRequest translates the grid flags into the wire request. The
// same request drives both coordination modes, and its Grid() is the
// one workers compile — so every float conversion (MHz to Hz, most
// visibly) happens exactly once, on the worker, identically to a
// local ratsim run.
func buildRequest(f exploreGridFlags) (api.ExploreRequest, error) {
	base, err := exploreBase(f.study, f.wsFile)
	if err != nil {
		return api.ExploreRequest{}, err
	}
	req := api.ExploreRequest{
		Worksheet:   worksheet.DocFromParams(base),
		Topology:    f.topo,
		Objective:   f.objective,
		TopK:        f.top,
		MinSpeedup:  f.minSpeedup,
		MaxUtilComm: f.maxUtilComm,
		MaxDevices:  f.maxDevices,
		Frontier:    f.frontier,
	}
	req.MaxTRCSeconds = f.maxTRC
	if req.ClocksMHz, err = parseFloats(f.clocks, "-clocks"); err != nil {
		return api.ExploreRequest{}, err
	}
	if req.ThroughputProcs, err = parseFloats(f.tps, "-tp"); err != nil {
		return api.ExploreRequest{}, err
	}
	if req.Alphas, err = parseFloats(f.alphas, "-alphas"); err != nil {
		return api.ExploreRequest{}, err
	}
	if req.BlockSizes, err = parseInt64s(f.blocks, "-blocks"); err != nil {
		return api.ExploreRequest{}, err
	}
	devs, err := parseInt64s(f.devices, "-devices")
	if err != nil {
		return api.ExploreRequest{}, err
	}
	for _, d := range devs {
		req.Devices = append(req.Devices, int(d))
	}
	switch f.buf {
	case "both":
	case "single", "double":
		req.Bufferings = []string{f.buf}
	default:
		return api.ExploreRequest{}, fmt.Errorf("%w: unknown buffering %q (want single, double or both)", cli.ErrUsage, f.buf)
	}
	// Fail fast on grid/objective mistakes before touching the fleet.
	g, err := req.Grid()
	if err != nil {
		return api.ExploreRequest{}, fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	if err := g.Validate(); err != nil {
		return api.ExploreRequest{}, fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	if _, err := req.Options(0); err != nil {
		return api.ExploreRequest{}, fmt.Errorf("%w: %w", cli.ErrUsage, err)
	}
	return req, nil
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
// unset axis.
func parseFloats(s, flagName string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad %s entry %q", cli.ErrUsage, flagName, part)
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

// renderCandidates prints candidates as a report table, mirroring
// ratsim's layout.
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

// renderCluster prints the shard-scheduling statistics.
func renderCluster(out io.Writer, cs api.ClusterStats) {
	fmt.Fprintf(out, "fleet: %d workers, %d shards (%d dispatched, %d retried, %d re-dispatched, %d duplicate completions, %d worker failures)\n",
		cs.Workers, cs.Shards, cs.Dispatched, cs.Retried, cs.Redispatched, cs.Duplicates, cs.Failures)
	for _, w := range cs.PerWorker {
		fmt.Fprintf(out, "  %s: %d shards, %d failures\n", w.Worker, w.Shards, w.Failures)
	}
}
