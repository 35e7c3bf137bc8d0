package explore

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/obs"
	"github.com/chrec/rat/internal/telemetry"
)

// Candidate is one evaluated design point: the axis values that define
// it plus the throughput-test numbers under its buffering discipline.
// Index is the candidate's stable position in the grid enumeration;
// Grid.At(Index) reconstructs the full worksheet.
type Candidate struct {
	Index uint64

	// Design knobs.
	ClockHz        float64
	ThroughputProc float64
	AlphaWrite     float64
	AlphaRead      float64
	ElementsIn     int64
	ElementsOut    int64
	Iterations     int64
	Devices        int
	Buffering      core.Buffering

	// Predicted numbers (per-iteration times in seconds; TRC is
	// end-to-end under the candidate's buffering discipline).
	TComm    float64
	TComp    float64
	TRC      float64
	Speedup  float64
	UtilComm float64
	UtilComp float64
}

// Objective selects what "best" means for the top-K ranking. Every
// objective is a total order (candidate index breaks ties), so the
// ranking is deterministic for any worker count.
type Objective int

const (
	// MaxSpeedup ranks by predicted speedup, descending (default).
	MaxSpeedup Objective = iota
	// MinTRC ranks by end-to-end RC execution time, ascending.
	MinTRC
	// MinCost ranks by implementation cost, ascending: fewest
	// devices, then lowest sustained ops/cycle, then lowest clock,
	// then single- before double-buffered. Combined with a
	// MinSpeedup constraint it answers "what is the cheapest
	// configuration that still meets the target?".
	MinCost
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MaxSpeedup:
		return "max-speedup"
	case MinTRC:
		return "min-trc"
	case MinCost:
		return "min-cost"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective converts an objective's String form back.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "max-speedup":
		return MaxSpeedup, nil
	case "min-trc":
		return MinTRC, nil
	case "min-cost":
		return MinCost, nil
	}
	return 0, fmt.Errorf("unknown objective %q (want max-speedup, min-trc or min-cost)", s)
}

// better reports whether a should rank above b under the objective.
// It is a strict total order: for a != b exactly one of better(a, b)
// and better(b, a) holds, because distinct candidates have distinct
// indices.
func (o Objective) better(a, b *Candidate) bool {
	switch o {
	case MinTRC:
		if a.TRC != b.TRC {
			return a.TRC < b.TRC
		}
	case MinCost:
		if a.Devices != b.Devices {
			return a.Devices < b.Devices
		}
		if a.ThroughputProc != b.ThroughputProc {
			return a.ThroughputProc < b.ThroughputProc
		}
		if a.ClockHz != b.ClockHz {
			return a.ClockHz < b.ClockHz
		}
		if a.Buffering != b.Buffering {
			return a.Buffering < b.Buffering
		}
	default: // MaxSpeedup
		if a.Speedup != b.Speedup {
			return a.Speedup > b.Speedup
		}
	}
	return a.Index < b.Index
}

// compare is better as a three-way comparison, for sorting.
func (o Objective) compare(a, b *Candidate) int { return order(o.better(a, b)) }

// worseValue reports whether pt's objective value is strictly worse
// than c's, index aside. It serves the objectives that rank by a
// number, MaxSpeedup and MinTRC.
func (o Objective) worseValue(pt *point, c *Candidate) bool {
	if o == MinTRC {
		return pt.trc > c.TRC
	}
	return pt.speedup < c.Speedup
}

// Constraints restrict which candidates count as feasible. Zero values
// leave a bound unset.
type Constraints struct {
	// MinSpeedup is the smallest acceptable predicted speedup.
	MinSpeedup float64
	// MaxTRC is the largest acceptable end-to-end RC time in seconds.
	MaxTRC float64
	// MaxUtilComm is the largest acceptable communication
	// utilization, for screening out interconnect-bound designs.
	MaxUtilComm float64
	// MaxDevices caps the FPGA count.
	MaxDevices int
}

// feasible reports whether a candidate with these numbers satisfies
// every set bound. It takes scalars so the hot loop can test a design
// before it builds a Candidate for it.
func (cs Constraints) feasible(speedup, trc, utilComm float64, devices int) bool {
	return cs.lowOK(speedup, trc) && cs.highOK(utilComm) && cs.devicesOK(devices)
}

// lowOK tests the bounds that fail only at small clock x
// throughput_proc products: speedup never falls and t_RC never rises
// as the product grows.
func (cs Constraints) lowOK(speedup, trc float64) bool {
	if cs.MinSpeedup > 0 && speedup < cs.MinSpeedup {
		return false
	}
	return !(cs.MaxTRC > 0 && trc > cs.MaxTRC)
}

// highOK tests the bound that fails only at large products:
// communication utilization never falls as the product grows.
func (cs Constraints) highOK(utilComm float64) bool {
	return !(cs.MaxUtilComm > 0 && utilComm > cs.MaxUtilComm)
}

// devicesOK tests the bound that takes or drops a whole row.
func (cs Constraints) devicesOK(devices int) bool {
	return !(cs.MaxDevices > 0 && devices > cs.MaxDevices)
}

// Options configure a Run.
type Options struct {
	// Workers is the worker-pool size; values below 1 use
	// runtime.GOMAXPROCS(0), the CPUs the process may run on at once.
	// The result is identical for any value.
	Workers int
	// TopK is how many best candidates to keep (default 10).
	TopK int
	// Objective ranks the top-K (default MaxSpeedup).
	Objective Objective
	// Constraints filter candidates before ranking.
	Constraints Constraints
	// Frontier asks for Result.Frontier. Without it the engine builds
	// no frontier and can skip more of the grid; Result.Frontier stays
	// nil.
	Frontier bool
	// IndexLo and IndexHi restrict the run to candidate indices
	// [IndexLo, IndexHi) — one shard of the grid. Both zero means the
	// whole grid. Because every candidate carries its stable grid
	// index, shard results merge byte-identically with a whole-grid
	// run (internal/cluster builds on this).
	IndexLo uint64
	IndexHi uint64
	// Metrics, when non-nil, receives engine telemetry: the
	// rat_explore_candidates_total, rat_explore_feasible_total and
	// rat_explore_evaluations_total counters and the
	// rat_explore_shard_seconds histogram.
	Metrics *telemetry.Registry
	// CollectSpans records one ShardSpan per evaluated shard into
	// Result.Spans: which index range ran on which worker and for how
	// long. Off by default — spans cost O(shards) memory and exist for
	// request tracing, not for every exploration.
	CollectSpans bool
}

// ShardSpan is one shard's timing record: the candidate index range
// [Lo, Hi) it covered, the worker that ran it, and its wall-clock
// duration. Spans expose work-stealing skew: a healthy run shows
// shards spread across workers with comparable durations.
type ShardSpan struct {
	Shard   int
	Worker  int
	Lo      uint64
	Hi      uint64
	Elapsed time.Duration
}

// Result is the outcome of exploring a grid.
type Result struct {
	// Evaluated is the covered candidate count: the grid size, or the
	// span of the index range for a partial (sharded) run. The engine
	// skips candidates that cannot change the answer, so this counts
	// coverage, not work; the rat_explore_evaluations_total counter
	// counts work.
	Evaluated uint64
	// Feasible is how many candidates satisfied the constraints.
	Feasible uint64
	// Top holds the best feasible candidates, best first, at most
	// TopK of them.
	Top []Candidate
	// Frontier is the Pareto frontier of the feasible set —
	// candidates not dominated on (speedup up, computation
	// utilization up, device count down) — sorted by Index. It is nil
	// unless Options.Frontier was set.
	Frontier []Candidate
	// Workers is the worker count actually used.
	Workers int
	// Elapsed is the wall-clock exploration time.
	Elapsed time.Duration
	// CandidatesPerSec is Evaluated divided by Elapsed: a coverage
	// rate, not an evaluation rate.
	CandidatesPerSec float64
	// Spans holds per-shard timing when Options.CollectSpans was set,
	// sorted by Lo so the listing reads as a scan of the index space.
	Spans []ShardSpan
}

// shardsPerWorker oversubscribes the shard count so a slow worker
// (preempted core, NUMA effects) cannot stall the run: fast workers
// steal the remaining shards from the shared counter.
const shardsPerWorker = 4

// Run explores the grid in parallel across a sharded worker pool and
// streams the results into a top-K selection and, when asked for, a
// Pareto frontier. It evaluates, through the memoized batch kernel,
// only the candidates that can change that answer (see walk.go): the
// Result is byte-identical to evaluating every candidate, and for any
// worker count. Memory use is O(workers x (TopK + frontier)) plus one
// row of the grid, regardless of grid size.
//
// Run compiles the grid and runs it without a deadline; a caller that
// needs the grid's size first, or cancellation, uses Grid.Compile and
// Compiled.Run.
func Run(g Grid, opts Options) (Result, error) {
	c, err := g.Compile()
	if err != nil {
		return Result{}, err
	}
	return c.Run(context.Background(), opts)
}

// Run explores the compiled grid (see the package-level Run). The
// calling goroutine is worker 0 and Workers-1 more are started; each
// worker checks ctx before it takes a shard. A run whose context ends
// stops within one shard per worker, span / (shardsPerWorker x
// workers) candidates, and returns the context's error, never a
// partial Result.
func (c *Compiled) Run(ctx context.Context, opts Options) (Result, error) {
	rangeLo, rangeHi := opts.IndexLo, opts.IndexHi
	if rangeLo == 0 && rangeHi == 0 {
		rangeHi = c.size
	}
	if rangeHi > c.size {
		return Result{}, errGrid("index range [%d, %d) exceeds grid size %d", rangeLo, rangeHi, c.size)
	}
	if rangeLo >= rangeHi {
		return Result{}, errGrid("index range [%d, %d) is empty", rangeLo, rangeHi)
	}
	span := rangeHi - rangeLo
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if uint64(workers) > span {
		workers = int(span)
	}
	k := opts.TopK
	if k <= 0 {
		k = 10
	}
	// No worker sees more than span candidates, so a larger K keeps
	// meaning "all of them" at a heap sized by the run, not the request.
	workerK := k
	if uint64(workerK) > span {
		workerK = int(span)
	}
	numShards := uint64(workers * shardsPerWorker)
	sh := &shards{
		p:     newPlan(c, opts),
		done:  ctx.Done(),
		lo:    rangeLo,
		hi:    rangeHi,
		size:  (span + numShards - 1) / numShards,
		count: numShards,
		k:     workerK,
		spans: opts.CollectSpans,
	}
	if opts.Metrics != nil {
		sh.seconds = opts.Metrics.Histogram("rat_explore_shard_seconds", shardBounds)
	}

	states := make([]workerState, workers)
	//rat:allow-wallclock wall time feeds Result.Elapsed telemetry only, never candidate ranking
	start := time.Now()
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(worker int, st *workerState) {
			defer wg.Done()
			st.work(sh, worker)
		}(w, &states[w])
	}
	states[0].work(sh, 0)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	//rat:allow-wallclock wall time feeds Result.Elapsed telemetry only, never candidate ranking
	elapsed := time.Since(start)

	res := merge(states, k, opts.Objective, opts.Frontier)
	res.Evaluated, res.Workers, res.Elapsed = span, workers, elapsed
	if opts.CollectSpans {
		for i := range states {
			res.Spans = append(res.Spans, states[i].spans...)
		}
		slices.SortFunc(res.Spans, func(a, b ShardSpan) int { return cmp.Compare(a.Lo, b.Lo) })
	}

	if secs := elapsed.Seconds(); secs > 0 {
		res.CandidatesPerSec = float64(res.Evaluated) / secs
	}
	if m := opts.Metrics; m != nil {
		var evals uint64
		for i := range states {
			evals += states[i].evals
		}
		m.Counter("rat_explore_candidates_total").Add(int64(res.Evaluated))
		m.Counter("rat_explore_feasible_total").Add(int64(res.Feasible))
		m.Counter("rat_explore_evaluations_total").Add(int64(evals))
	}
	return res, nil
}

// shards is one Run's shared work queue: the plan, the index window
// cut into count shards of size candidates, and the counter the
// workers take shards from.
type shards struct {
	p           *plan
	done        <-chan struct{} // the run's context; nil never ends
	next        atomic.Uint64
	lo, hi      uint64
	size, count uint64
	k           int // each worker's top-K size
	seconds     *telemetry.Histogram
	spans       bool
}

// shardBounds are the rat_explore_shard_seconds buckets, the
// rat_stage_seconds ones: a shard runs for microseconds to seconds.
var shardBounds = obs.StageBounds()

// work takes shards until none is left or the run's context ends.
func (st *workerState) work(sh *shards, worker int) {
	st.top.init(sh.k, sh.p.obj)
	for {
		select {
		case <-sh.done:
			return
		default:
		}
		s := sh.next.Add(1) - 1
		if s >= sh.count {
			return
		}
		lo := sh.lo + s*sh.size
		hi := min(lo+sh.size, sh.hi)
		if lo >= hi {
			continue
		}
		//rat:allow-wallclock shard timing feeds rat_explore_shard_seconds and ShardSpan telemetry only
		shardStart := time.Now()
		st.runShard(sh.p, lo, hi)
		//rat:allow-wallclock shard timing feeds rat_explore_shard_seconds and ShardSpan telemetry only
		shardElapsed := time.Since(shardStart)
		if sh.seconds != nil {
			sh.seconds.Observe(shardElapsed.Seconds())
		}
		if sh.spans {
			st.spans = append(st.spans, ShardSpan{
				Shard:   int(s),
				Worker:  worker,
				Lo:      lo,
				Hi:      hi,
				Elapsed: shardElapsed,
			})
		}
	}
}

// merge folds the per-worker results into the Result's counts, top-K
// and frontier. Per-worker results depend only on which candidates
// each worker saw, and the global sort erases that partitioning.
func merge(states []workerState, k int, obj Objective, frontier bool) Result {
	var res Result
	var merged []Candidate
	for i := range states {
		res.Feasible += states[i].feasible
		merged = append(merged, states[i].top.items...)
	}
	sortCandidates(merged, obj.compare)
	if len(merged) > k {
		merged = merged[:k]
	}
	res.Top = merged
	if frontier {
		res.Frontier = mergeFrontiers(states)
	}
	return res
}

// workerState is one worker's private accumulation. Workers share only
// the compiled grid and the plan (both read-only) and the shard
// counter, so the hot loop runs without locks or allocation.
type workerState struct {
	top      topK
	front    []Candidate
	feasible uint64
	// evals counts Eq. 1-11 evaluations, the engine's unit of work.
	evals uint64
	// rows and order are walkRows' buffers, reused across shards.
	rows  []rowPlan
	order []int32
	spans []ShardSpan
}

// evalShard evaluates candidates [lo, hi) of the compiled grid. The
// arithmetic reproduces core.Predict / core.PredictMulti expression by
// expression (memoized where the sub-term is axis-invariant), so every
// candidate's numbers are bit-for-bit the scalar results.
//
// Only lo is decoded; from there the six axis counters advance like an
// odometer, so no candidate pays an index division. Whatever depends
// only on (block, alpha, device, buffering) is computed once per row
// of clocks x throughput_procs, and the constraints are tested on
// scalars: a Candidate is filled in only for a feasible design. Every
// candidate in the range is evaluated, ranked and, when frontier is
// set, folded into the frontier: this is the exhaustive loop the row
// walk must agree with, and the path for short and cut rows.
//
//rat:hotpath
func (st *workerState) evalShard(c *Compiled, cons Constraints, lo, hi uint64, frontier bool) {
	st.evals += hi - lo
	na, nd, nu, nc, nt := len(c.alphas), len(c.devs), len(c.bufs), len(c.clocks), len(c.tps)
	bi, ai, di, ui, ci, ti := c.decode(lo)
	tSoft := c.base.Soft.TSoft
	var cand Candidate
	for idx := lo; idx < hi; {
		// Row invariants. Fields set here hold for the whole row:
		// topK.offer and insertFrontier copy cand, never keep it.
		b := &c.blocks[bi]
		devices := c.devs[di]
		n := float64(devices)
		// Eqs. 1-3, memoized per (block, alpha). TComm is read +
		// write in that order, matching core.Predict. The multi-FPGA
		// extension (core.PredictMulti) divides communication by N
		// on independent channels only.
		tComm := c.tRead[bi*na+ai] + c.tWrite[bi*na+ai]
		if c.topo == core.IndependentChannels {
			tComm = tComm / n
		}
		iters := float64(b.iters)
		double := c.bufs[ui] == core.DoubleBuffered
		cand.AlphaWrite = c.alphas[ai].write
		cand.AlphaRead = c.alphas[ai].read
		cand.ElementsIn = b.elemsIn
		cand.ElementsOut = b.elemsOut
		cand.Iterations = b.iters
		cand.Devices = devices
		cand.Buffering = c.bufs[ui]
		cand.TComm = tComm

		for ; ci < nc; ci++ {
			denom := c.denom[ci*nt : ci*nt+nt]
			for ; ti < nt; ti, idx = ti+1, idx+1 {
				if idx == hi {
					return
				}
				// Eq. 4: numerator per block, denominator memoized per
				// (clock, throughput_proc), then split across N devices.
				// N == 1 divides by 1.0, which is exact, so the
				// single-device numbers equal core.Predict's.
				tComp := b.opsCoeff / denom[ti]
				tComp = tComp / n
				// Eqs. 5-6: per-iteration time is the sum (single-
				// buffered) or the max (double-buffered) of t_comm and
				// t_comp, and Eqs. 8-11 divide by the same value. The
				// builtin max has math.Max's NaN and signed-zero rules,
				// so the results are bit-identical.
				var tIter float64
				if double {
					tIter = max(tComm, tComp)
				} else {
					tIter = tComm + tComp
				}
				trc := iters * tIter
				utilComm := tComm / tIter
				// Eq. 7.
				speedup := 0.0
				if tSoft > 0 {
					speedup = tSoft / trc
				}
				if !cons.feasible(speedup, trc, utilComm, devices) {
					continue
				}
				cand.Index = idx
				cand.ClockHz = c.clocks[ci]
				cand.ThroughputProc = c.tps[ti]
				cand.TComp = tComp
				cand.TRC = trc
				cand.Speedup = speedup
				cand.UtilComm = utilComm
				cand.UtilComp = tComp / tIter
				st.feasible++
				st.top.offer(&cand)
				if frontier {
					st.front = insertFrontier(st.front, &cand)
				}
			}
			ti = 0
		}
		ci = 0
		// Carry into the outer four axes.
		if ui++; ui == nu {
			ui = 0
			if di++; di == nd {
				di = 0
				if ai++; ai == na {
					ai = 0
					bi++
				}
			}
		}
	}
}
