// Package api defines the wire format of the ratd prediction service:
// the JSON request and response bodies exchanged over HTTP by
// internal/server (the daemon) and package client (the typed Go
// client). Field names and units mirror the worksheet JSON form
// (MB/s, MHz, seconds).
//
// Conversions between wire and core types are exact: every float64
// travels as its shortest round-trippable JSON representation, so a
// prediction decoded from a response is bit-for-bit the prediction the
// server computed. See docs/SERVER.md for the endpoint catalogue.
package api

import (
	"fmt"
	"math"
	"time"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/worksheet"
)

// Error is the JSON body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
}

// Prediction is the wire form of core.Prediction: the full throughput
// test output (Eqs. 1-11) plus the worksheet that produced it.
type Prediction struct {
	Worksheet worksheet.Doc `json:"worksheet"`

	TWriteSeconds    float64 `json:"t_write_seconds"`
	TReadSeconds     float64 `json:"t_read_seconds"`
	TCommSeconds     float64 `json:"t_comm_seconds"`
	TCompSeconds     float64 `json:"t_comp_seconds"`
	TRCSingleSeconds float64 `json:"t_rc_single_seconds"`
	TRCDoubleSeconds float64 `json:"t_rc_double_seconds"`
	SpeedupSingle    float64 `json:"speedup_single"`
	SpeedupDouble    float64 `json:"speedup_double"`
	UtilCompSingle   float64 `json:"util_comp_single"`
	UtilCommSingle   float64 `json:"util_comm_single"`
	UtilCompDouble   float64 `json:"util_comp_double"`
	UtilCommDouble   float64 `json:"util_comm_double"`
}

// PredictionFromCore converts a core prediction to its wire form.
func PredictionFromCore(pr core.Prediction) Prediction {
	return Prediction{
		Worksheet:        worksheet.DocFromParams(pr.Params),
		TWriteSeconds:    pr.TWrite,
		TReadSeconds:     pr.TRead,
		TCommSeconds:     pr.TComm,
		TCompSeconds:     pr.TComp,
		TRCSingleSeconds: pr.TRCSingle,
		TRCDoubleSeconds: pr.TRCDouble,
		SpeedupSingle:    pr.SpeedupSingle,
		SpeedupDouble:    pr.SpeedupDouble,
		UtilCompSingle:   pr.UtilCompSB,
		UtilCommSingle:   pr.UtilCommSB,
		UtilCompDouble:   pr.UtilCompDB,
		UtilCommDouble:   pr.UtilCommDB,
	}
}

// Core converts the wire form back to a core.Prediction.
func (p Prediction) Core() core.Prediction {
	return core.Prediction{
		Params:        p.Worksheet.Params(),
		TWrite:        p.TWriteSeconds,
		TRead:         p.TReadSeconds,
		TComm:         p.TCommSeconds,
		TComp:         p.TCompSeconds,
		TRCSingle:     p.TRCSingleSeconds,
		TRCDouble:     p.TRCDoubleSeconds,
		SpeedupSingle: p.SpeedupSingle,
		SpeedupDouble: p.SpeedupDouble,
		UtilCompSB:    p.UtilCompSingle,
		UtilCommSB:    p.UtilCommSingle,
		UtilCompDB:    p.UtilCompDouble,
		UtilCommDB:    p.UtilCommDouble,
	}
}

// MultiPrediction is the wire form of core.MultiPrediction, the
// Section 6 multi-FPGA extension's output.
type MultiPrediction struct {
	Devices  int    `json:"devices"`
	Topology string `json:"topology"`

	Single Prediction `json:"single"`

	TCommSeconds      float64 `json:"t_comm_seconds"`
	TCompSeconds      float64 `json:"t_comp_seconds"`
	TRCSingleSeconds  float64 `json:"t_rc_single_seconds"`
	TRCDoubleSeconds  float64 `json:"t_rc_double_seconds"`
	SpeedupSingle     float64 `json:"speedup_single"`
	SpeedupDouble     float64 `json:"speedup_double"`
	ScalingEfficiency float64 `json:"scaling_efficiency"`
}

// MultiPredictionFromCore converts a core multi-FPGA prediction to its
// wire form.
func MultiPredictionFromCore(mp core.MultiPrediction) MultiPrediction {
	return MultiPrediction{
		Devices:           mp.Config.Devices,
		Topology:          mp.Config.Topology.String(),
		Single:            PredictionFromCore(mp.Single),
		TCommSeconds:      mp.TComm,
		TCompSeconds:      mp.TComp,
		TRCSingleSeconds:  mp.TRCSingle,
		TRCDoubleSeconds:  mp.TRCDouble,
		SpeedupSingle:     mp.SpeedupSingle,
		SpeedupDouble:     mp.SpeedupDouble,
		ScalingEfficiency: mp.ScalingEfficiency,
	}
}

// Core converts the wire form back to a core.MultiPrediction. The
// topology string must be valid (responses built by the server always
// are); unknown strings map to the shared-channel zero value.
func (mp MultiPrediction) Core() core.MultiPrediction {
	topo, _ := ParseTopology(mp.Topology)
	return core.MultiPrediction{
		Config:            core.MultiConfig{Devices: mp.Devices, Topology: topo},
		Single:            mp.Single.Core(),
		TComm:             mp.TCommSeconds,
		TComp:             mp.TCompSeconds,
		TRCSingle:         mp.TRCSingleSeconds,
		TRCDouble:         mp.TRCDoubleSeconds,
		SpeedupSingle:     mp.SpeedupSingle,
		SpeedupDouble:     mp.SpeedupDouble,
		ScalingEfficiency: mp.ScalingEfficiency,
	}
}

// ParseTopology converts a topology name to its core value, accepting
// both the short and the canonical String form.
func ParseTopology(s string) (core.Topology, error) {
	switch s {
	case "", "shared", "shared-channel":
		return core.SharedChannel, nil
	case "independent", "independent-channels":
		return core.IndependentChannels, nil
	}
	return 0, fmt.Errorf("unknown topology %q (want shared or independent)", s)
}

// ParseBuffering converts a buffering name to its core value.
func ParseBuffering(s string) (core.Buffering, error) {
	switch s {
	case "single", "single-buffered":
		return core.SingleBuffered, nil
	case "double", "double-buffered":
		return core.DoubleBuffered, nil
	}
	return 0, fmt.Errorf("unknown buffering %q (want single or double)", s)
}

// ExploreRequest is the body of POST /v1/explore: a bounded grid
// search around a base worksheet (see internal/explore and
// docs/EXPLORE.md). Empty axes keep the base worksheet's value.
type ExploreRequest struct {
	Worksheet worksheet.Doc `json:"worksheet"`

	ClocksMHz       []float64 `json:"clocks_mhz,omitempty"`
	ThroughputProcs []float64 `json:"throughput_procs,omitempty"`
	Alphas          []float64 `json:"alphas,omitempty"`
	BlockSizes      []int64   `json:"block_sizes,omitempty"`
	Devices         []int     `json:"devices,omitempty"`
	Topology        string    `json:"topology,omitempty"`
	Bufferings      []string  `json:"bufferings,omitempty"`

	Objective string `json:"objective,omitempty"`
	TopK      int    `json:"top_k,omitempty"`

	MinSpeedup    float64 `json:"min_speedup,omitempty"`
	MaxTRCSeconds float64 `json:"max_trc_seconds,omitempty"`
	MaxUtilComm   float64 `json:"max_util_comm,omitempty"`
	MaxDevices    int     `json:"max_devices,omitempty"`

	// Frontier asks for the Pareto frontier alongside the top-K.
	Frontier bool `json:"frontier,omitempty"`

	// IndexLo and IndexHi restrict evaluation to candidate indices
	// [index_lo, index_hi) — one shard of the grid. Both zero (or
	// absent) means the whole grid. Shard responses merge
	// byte-identically with a whole-grid run; internal/cluster and
	// docs/DISTRIBUTED.md build on this.
	IndexLo uint64 `json:"index_lo,omitempty"`
	IndexHi uint64 `json:"index_hi,omitempty"`
}

// Grid builds the exploration grid the request describes.
func (r ExploreRequest) Grid() (explore.Grid, error) {
	topo, err := ParseTopology(r.Topology)
	if err != nil {
		return explore.Grid{}, err
	}
	g := explore.Grid{
		Base:            r.Worksheet.Params(),
		ThroughputProcs: r.ThroughputProcs,
		Alphas:          r.Alphas,
		BlockSizes:      r.BlockSizes,
		Devices:         r.Devices,
		Topology:        topo,
	}
	if len(r.ClocksMHz) > 0 {
		g.Clocks = make([]float64, 0, len(r.ClocksMHz))
	}
	for _, mhz := range r.ClocksMHz {
		g.Clocks = append(g.Clocks, core.MHz(mhz))
	}
	if len(r.Bufferings) > 0 {
		g.Bufferings = make([]core.Buffering, 0, len(r.Bufferings))
	}
	for _, b := range r.Bufferings {
		buf, err := ParseBuffering(b)
		if err != nil {
			return explore.Grid{}, err
		}
		g.Bufferings = append(g.Bufferings, buf)
	}
	return g, nil
}

// Options builds the exploration options the request describes. The
// caller (the server) supplies the worker count.
func (r ExploreRequest) Options(workers int) (explore.Options, error) {
	opts := explore.Options{
		Workers:  workers,
		TopK:     r.TopK,
		Frontier: r.Frontier,
		IndexLo:  r.IndexLo,
		IndexHi:  r.IndexHi,
		Constraints: explore.Constraints{
			MinSpeedup:  r.MinSpeedup,
			MaxTRC:      r.MaxTRCSeconds,
			MaxUtilComm: r.MaxUtilComm,
			MaxDevices:  r.MaxDevices,
		},
	}
	if r.Objective != "" {
		obj, err := explore.ParseObjective(r.Objective)
		if err != nil {
			return explore.Options{}, err
		}
		opts.Objective = obj
	}
	return opts, nil
}

// ExploreJob is an explore request made ready to run: its grid
// compiled once, the candidate span it asks for, and its options.
type ExploreJob struct {
	Grid    *explore.Compiled
	Span    uint64
	Options explore.Options
}

// Prepare is the one validation path of every explore surface (both
// explore endpoints, the cluster coordinator, ratsim explore and
// ratctl explore): it builds the request's grid, compiles it once,
// checks the index range, parses the options with the given engine
// worker count and refuses non-finite constraints. Every failure wraps
// core.ErrInvalidParameters, so every surface rejects the same
// requests. The span is the index range's width when one is set: a
// sharded request is charged for its slice, not the whole grid.
func (r *ExploreRequest) Prepare(workers int) (ExploreJob, error) {
	grid, err := r.Grid()
	if err != nil {
		return ExploreJob{}, fmt.Errorf("%w: %v", core.ErrInvalidParameters, err)
	}
	c, err := grid.Compile()
	if err != nil {
		return ExploreJob{}, err
	}
	span := c.Size()
	if r.IndexLo != 0 || r.IndexHi != 0 {
		if r.IndexHi > span || r.IndexLo >= r.IndexHi {
			return ExploreJob{}, fmt.Errorf("%w: invalid index range [%d, %d) for grid size %d",
				core.ErrInvalidParameters, r.IndexLo, r.IndexHi, span)
		}
		span = r.IndexHi - r.IndexLo
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(r.MinSpeedup) || !finite(r.MaxTRCSeconds) || !finite(r.MaxUtilComm) {
		return ExploreJob{}, fmt.Errorf("%w: constraints must be finite (min_speedup %v, max_trc_seconds %v, max_util_comm %v)",
			core.ErrInvalidParameters, r.MinSpeedup, r.MaxTRCSeconds, r.MaxUtilComm)
	}
	opts, err := r.Options(workers)
	if err != nil {
		return ExploreJob{}, fmt.Errorf("%w: %v", core.ErrInvalidParameters, err)
	}
	return ExploreJob{Grid: c, Span: span, Options: opts}, nil
}

// Candidate is the wire form of one evaluated design point.
type Candidate struct {
	Index uint64 `json:"index"`

	ClockMHz       float64 `json:"clock_mhz"`
	ThroughputProc float64 `json:"throughput_proc"`
	AlphaWrite     float64 `json:"alpha_write"`
	AlphaRead      float64 `json:"alpha_read"`
	ElementsIn     int64   `json:"elements_in"`
	ElementsOut    int64   `json:"elements_out"`
	Iterations     int64   `json:"iterations"`
	Devices        int     `json:"devices"`
	Buffering      string  `json:"buffering"`

	TCommSeconds float64 `json:"t_comm_seconds"`
	TCompSeconds float64 `json:"t_comp_seconds"`
	TRCSeconds   float64 `json:"t_rc_seconds"`
	Speedup      float64 `json:"speedup"`
	UtilComm     float64 `json:"util_comm"`
	UtilComp     float64 `json:"util_comp"`
}

// CandidateFromCore converts an explore candidate to its wire form.
func CandidateFromCore(c explore.Candidate) Candidate {
	return Candidate{
		Index:          c.Index,
		ClockMHz:       c.ClockHz / 1e6,
		ThroughputProc: c.ThroughputProc,
		AlphaWrite:     c.AlphaWrite,
		AlphaRead:      c.AlphaRead,
		ElementsIn:     c.ElementsIn,
		ElementsOut:    c.ElementsOut,
		Iterations:     c.Iterations,
		Devices:        c.Devices,
		Buffering:      c.Buffering.String(),
		TCommSeconds:   c.TComm,
		TCompSeconds:   c.TComp,
		TRCSeconds:     c.TRC,
		Speedup:        c.Speedup,
		UtilComm:       c.UtilComm,
		UtilComp:       c.UtilComp,
	}
}

// ExploreResponse is the body of a non-streaming POST /v1/explore
// response. In streaming mode (?stream=jsonl) the same data arrives as
// JSONL: one ExploreLine per line.
type ExploreResponse struct {
	Evaluated        uint64      `json:"evaluated"`
	Feasible         uint64      `json:"feasible"`
	Workers          int         `json:"workers"`
	ElapsedSeconds   float64     `json:"elapsed_seconds"`
	CandidatesPerSec float64     `json:"candidates_per_sec"`
	Top              []Candidate `json:"top"`
	Frontier         []Candidate `json:"frontier,omitempty"`
}

// ExploreResponseFromCore converts an exploration result to its wire
// form. The frontier is included only when asked for.
func ExploreResponseFromCore(res explore.Result, frontier bool) ExploreResponse {
	out := ExploreResponse{
		Evaluated:        res.Evaluated,
		Feasible:         res.Feasible,
		Workers:          res.Workers,
		ElapsedSeconds:   res.Elapsed.Seconds(),
		CandidatesPerSec: res.CandidatesPerSec,
		Top:              make([]Candidate, 0, len(res.Top)),
	}
	for _, c := range res.Top {
		out.Top = append(out.Top, CandidateFromCore(c))
	}
	if frontier {
		out.Frontier = make([]Candidate, 0, len(res.Frontier))
		for _, c := range res.Frontier {
			out.Frontier = append(out.Frontier, CandidateFromCore(c))
		}
	}
	return out
}

// ExploreLine is one line of a streaming explore response: exactly one
// of the fields is set. Candidate lines ("top", then "frontier" when
// requested) stream as they are known; span lines (opt-in via
// ?spans=1) describe per-shard engine timing; the summary line
// terminates the stream.
type ExploreLine struct {
	Kind      string          `json:"kind"` // "top", "frontier", "span" or "summary"
	Candidate *Candidate      `json:"candidate,omitempty"`
	Span      *ShardSpan      `json:"span,omitempty"`
	Summary   *ExploreSummary `json:"summary,omitempty"`
}

// ShardSpan is the wire form of one exploration shard's timing: which
// slice of the candidate index space a worker evaluated and how long
// it took. Spans let a trace of a slow exploration show skew across
// workers instead of one opaque elapsed number.
type ShardSpan struct {
	Shard          int     `json:"shard"`
	Worker         int     `json:"worker"`
	Lo             uint64  `json:"lo"`
	Hi             uint64  `json:"hi"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// ExploreSummary is the closing line of a streaming explore response.
type ExploreSummary struct {
	Evaluated        uint64  `json:"evaluated"`
	Feasible         uint64  `json:"feasible"`
	Workers          int     `json:"workers"`
	ElapsedSeconds   float64 `json:"elapsed_seconds"`
	CandidatesPerSec float64 `json:"candidates_per_sec"`
}

// Elapsed returns the summary's elapsed time as a duration.
func (s ExploreSummary) Elapsed() time.Duration {
	return time.Duration(s.ElapsedSeconds * float64(time.Second))
}

// DistributedExploreRequest is the body of POST
// /v1/explore/distributed: the coordinating ratd shards the embedded
// explore request's candidate-index range across the listed worker
// base URLs and merges the shard results byte-identically with a
// single-node run (see internal/cluster and docs/DISTRIBUTED.md).
type DistributedExploreRequest struct {
	Explore ExploreRequest `json:"explore"`

	// Workers are the ratd base URLs to shard across, e.g.
	// ["http://fleet-1:8080", "http://fleet-2:8080"]. The coordinator
	// may list itself.
	Workers []string `json:"workers"`

	// ShardSize is the candidate count per shard; 0 derives a size
	// that oversubscribes the fleet 8x (clamped to [1, 2^20]).
	ShardSize uint64 `json:"shard_size,omitempty"`
	// MaxInflight bounds concurrently dispatched shards per worker
	// (default 2), so a coordinator cannot monopolize a shared
	// tenant's admission slots.
	MaxInflight int `json:"max_inflight,omitempty"`
	// ShardTimeoutSeconds is the straggler deadline: a shard still
	// running after this long is speculatively re-dispatched to
	// another healthy worker (default 30s).
	ShardTimeoutSeconds float64 `json:"shard_timeout_seconds,omitempty"`
}

// WorkerShardStats is one worker's share of a distributed run.
type WorkerShardStats struct {
	Worker   string `json:"worker"`
	Shards   int64  `json:"shards"`
	Failures int64  `json:"failures"`
}

// ClusterStats describes how a distributed exploration ran: fleet
// shape, dispatch/retry/straggler counts and the per-worker split.
// None of it affects the merged result — determinism holds whatever
// the fleet did.
type ClusterStats struct {
	Workers      int                `json:"workers"`
	Shards       int                `json:"shards"`
	Dispatched   int64              `json:"dispatched"`
	Retried      int64              `json:"retried"`
	Redispatched int64              `json:"redispatched"`
	Duplicates   int64              `json:"duplicate_completions"`
	Failures     int64              `json:"worker_failures"`
	PerWorker    []WorkerShardStats `json:"per_worker"`
}

// DistributedExploreResponse is the body of a POST
// /v1/explore/distributed response: the merged exploration result
// (bit-for-bit what a single node would have returned for the same
// request) plus fleet statistics.
type DistributedExploreResponse struct {
	ExploreResponse
	Cluster ClusterStats `json:"cluster"`
}

// Status is the body of GET /v1/status: a live operational snapshot of
// a ratd process. It complements /metrics — the same numbers a
// dashboard would derive from the exposition, pre-digested for humans
// and scripts.
type Status struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	QPS           float64 `json:"qps"`
	Draining      bool    `json:"draining"`

	Endpoints map[string]EndpointStatus `json:"endpoints"`
	Cache     CacheStatus               `json:"cache"`
	Stages    map[string]StageStatus    `json:"stages"`

	// Tenants is present only on multi-tenant servers: one entry per
	// configured tenant name.
	Tenants map[string]TenantStatus `json:"tenants,omitempty"`
}

// TenantStatus summarizes one tenant's traffic, rejections and
// concurrency on a multi-tenant server.
type TenantStatus struct {
	Requests            int64   `json:"requests"`
	RejectedQuota       int64   `json:"rejected_quota"`
	RejectedConcurrency int64   `json:"rejected_concurrency"`
	Inflight            int64   `json:"inflight"`
	PeakInflight        int64   `json:"peak_inflight"`
	P99Ms               float64 `json:"p99_ms"`
}

// EndpointStatus summarizes one endpoint's traffic and latency.
type EndpointStatus struct {
	Requests int64   `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	Inflight float64 `json:"inflight,omitempty"`
	Peak     float64 `json:"peak_inflight,omitempty"`
	Rejected int64   `json:"rejected,omitempty"`
}

// CacheStatus summarizes the response cache.
type CacheStatus struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
	Entries  float64 `json:"entries"`
}

// StageStatus summarizes one pipeline stage's latency distribution.
type StageStatus struct {
	Count int64   `json:"count"`
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`
}
