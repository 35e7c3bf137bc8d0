package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/chrec/rat/client"
	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/cli"
	"github.com/chrec/rat/internal/cli/explorecli"
	"github.com/chrec/rat/internal/cluster"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/telemetry"
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
	grid := explorecli.Register(fs)
	shardSize := fs.Uint64("shard-size", 0, "candidates per shard (0 = auto)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrent shards per worker (0 = default)")
	shardTimeout := fs.Duration("shard-timeout", 30*time.Second, "per-shard deadline before re-dispatch")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall run deadline")
	key := fs.String("key", "", "API key sent to every worker (Authorization: Bearer)")
	metrics := fs.Bool("metrics", false, "print the coordinator's telemetry after the run")
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	fleet, err := workerFleet(*workersFlag, *key, *shardTimeout)
	if err != nil {
		return err
	}
	req, _, err := grid.Request(0)
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
		res, cstats, runErr = runVia(ctx, *via, fleet, req, *shardSize, *maxInflight, *shardTimeout, *key)
	} else {
		res, cstats, runErr = runFleet(ctx, fleet, req, *shardSize, *maxInflight, *shardTimeout, reg)
	}
	if runErr != nil {
		return runErr
	}

	if err := grid.Print(out, res, "across"); err != nil {
		return err
	}
	if grid.JSONL() {
		fmt.Fprintf(errOut, "ratctl: explored %d candidates (%d feasible) across %d workers in %v\n",
			res.Evaluated, res.Feasible, cstats.Workers, res.Elapsed.Round(time.Millisecond))
	} else {
		fmt.Fprintln(out)
		renderCluster(out, cstats)
	}
	if reg != nil {
		fmt.Fprintln(out, "\nmetrics:")
		return telemetry.WriteText(out, reg.Snapshot())
	}
	return nil
}

// workerFleet splits the -workers flag and builds its fleet; a URL
// that is not an http(s) base URL with a host is a usage error.
func workerFleet(s, key string, shardTimeout time.Duration) ([]cluster.Remote, error) {
	var urls []string
	for _, part := range strings.Split(s, ",") {
		if u := strings.TrimSpace(part); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return nil, cli.Usagef("-workers is required")
	}
	fleet, err := cluster.Fleet(urls, key, shardTimeout)
	return fleet, cli.WrapUsage(err)
}

// runFleet coordinates the exploration locally: internal/cluster
// schedules shards across the fleet's typed clients.
func runFleet(ctx context.Context, fleet []cluster.Remote, req api.ExploreRequest,
	shardSize uint64, maxInflight int, shardTimeout time.Duration,
	reg *telemetry.Registry) (explore.Result, api.ClusterStats, error) {

	coord, err := cluster.New(cluster.Config{
		Workers:      fleet,
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
func runVia(ctx context.Context, via string, fleet []cluster.Remote, req api.ExploreRequest,
	shardSize uint64, maxInflight int, shardTimeout time.Duration,
	key string) (explore.Result, api.ClusterStats, error) {

	urls := make([]string, len(fleet))
	for i, w := range fleet {
		urls[i] = w.Name
	}
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

	// The request passed api's validation, so neither conversion fails.
	g, _ := req.Grid()
	opts, _ := req.Options(0)
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

// renderCluster prints the shard-scheduling statistics.
func renderCluster(out io.Writer, cs api.ClusterStats) {
	fmt.Fprintf(out, "fleet: %d workers, %d shards (%d dispatched, %d retried, %d re-dispatched, %d duplicate completions, %d worker failures)\n",
		cs.Workers, cs.Shards, cs.Dispatched, cs.Retried, cs.Redispatched, cs.Duplicates, cs.Failures)
	for _, w := range cs.PerWorker {
		fmt.Fprintf(out, "  %s: %d shards, %d failures\n", w.Worker, w.Shards, w.Failures)
	}
}
