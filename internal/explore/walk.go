package explore

import (
	"math"
	"math/bits"
	"slices"

	"github.com/chrec/rat/internal/core"
)

// The row walk: exact pruning of a grid's full rows.
//
// A row is the clocks x throughput_procs block at one (block, alpha,
// devices, buffering). Within a row every number depends only on the
// memoized d = clock x throughput_proc, and each is a chain of
// correctly rounded monotone operations of d: t_comp, t_iter and t_RC
// never increase as d grows, speedup and util_comm never decrease.
// Positions with equal d get bit-identical numbers. Sorting the row's
// positions by d (once per Run, in the plan) therefore makes
//
//   - feasibility an interval of sorted positions: MinSpeedup and
//     MaxTRC fix its low end, MaxUtilComm its high end, and MaxDevices
//     takes or drops the whole row. Two binary searches find it, so
//     Result.Feasible stays an exact count;
//   - the top-K a walk from the row's best end: MaxSpeedup and MinTRC
//     are best at the highest d, and the walk stops at the first value
//     strictly worse than the worker's K-th, never on a tie (ties rank
//     by index). MinCost ranks by structure alone, so its walk takes
//     throughput_procs, then clocks, ascending, evaluates only what it
//     offers and stops at the first candidate the K-th beats;
//   - the frontier a box search: a box of sorted positions is skipped
//     when a frontier member dominates its ideal corner (its highest
//     speedup, a proven upper bound of its util_comp, its device
//     count), the BBS skyline idea (Papadias et al., SIGMOD 2003). A
//     leaf box that is not skipped offers the frontier only its own
//     skyline, found by one sweep because speedup is monotone in d.
//
// util_comp is the one number that is not exactly monotone. Double-
// buffered it is: 1 while compute-bound, then t_comp / t_comm. Single-
// buffered, t_comp / (t_comm + t_comp) can rise by an ulp as d grows,
// so a box's bound is util_comp at its low end raised utilCompMargin
// ulps and capped at 1 (docs/EXPLORE.md has the proof).
//
// Every skipped candidate ranks below, or is dominated by, one the
// worker kept; a worker's K-th and frontier only improve, so pruning
// against them is safe, in any row order; and no candidate is offered
// or inserted twice.
// The Result is therefore byte-identical to evalShard's exhaustive
// loop, which stays the path for short rows and for rows a shard or
// index window cuts.

const (
	// shortRow is the row length below which a grid takes evalShard's
	// loop: on short rows the binary searches and box corners cost
	// more evaluations than they save.
	shortRow = 16
	// leafSize is the width of the frontier search's second and last
	// level of boxes, which are evaluated position by position. A
	// leaf's skyline is a uint32 bit set, so it is at most 32.
	leafSize = 16
	// utilCompMargin is how many ulps a single-buffered box's util_comp
	// bound sits above util_comp at the box's low end.
	utilCompMargin = 4
	// rowBatch is how many rows walkRows plans and orders at a time,
	// which bounds a worker's working memory on any shard size.
	rowBatch = 256
)

// slot is one (clock, throughput_proc) position of a row, with
// everything a walk needs to fill a Candidate without decoding an
// index.
type slot struct {
	d, clock, tp float64
	off          uint64 // position in the row: clock index x len(tps) + tp index
}

// plan is the per-Run state the workers share read-only: the compiled
// grid, the request, and the row's positions in the two walk orders.
type plan struct {
	c        *Compiled
	cons     Constraints
	obj      Objective
	frontier bool
	rowLen   uint64
	// byD orders the positions by (d, off); nil when rows are short.
	byD []slot
	// byCost orders them by (throughput_proc, clock), the MinCost rank
	// within a row; nil for other objectives.
	byCost []slot
}

// newPlan orders the row's positions once for the whole Run. Axis
// values are distinct, so sorting each axis once orders byCost
// outright. For byD, each clock's positions taken in ascending
// throughput_proc order form a run whose d never decreases (rounding
// is monotone); equal products within a run are put in off order and
// the runs merged, which is the (d, off) order a full sort gives.
func newPlan(c *Compiled, opts Options) *plan {
	p := &plan{
		c: c, cons: opts.Constraints, obj: opts.Objective, frontier: opts.Frontier,
		rowLen: uint64(len(c.clocks) * len(c.tps)),
	}
	if p.rowLen < shortRow {
		return p
	}
	nt := len(c.tps)
	tpOrder := axisOrder(c.tps)
	buf := make([]slot, 2*p.rowLen)
	runs, spare := buf[:p.rowLen], buf[p.rowLen:]
	for ci := range c.clocks {
		run := runs[ci*nt : ci*nt+nt]
		for j, ti := range tpOrder {
			run[j] = c.slotAt(ci, int(ti))
		}
		// Equal products sit next to each other; order them by off.
		for j := 1; j < nt; j++ {
			for i := j; i > 0 && run[i].d == run[i-1].d && run[i].off < run[i-1].off; i-- {
				run[i], run[i-1] = run[i-1], run[i]
			}
		}
	}
	var free []slot
	p.byD, free = mergeRuns(runs, spare, nt)
	if p.obj == MinCost {
		p.byCost = free[:0]
		clockOrder := axisOrder(c.clocks)
		for _, ti := range tpOrder {
			for _, ci := range clockOrder {
				p.byCost = append(p.byCost, c.slotAt(int(ci), int(ti)))
			}
		}
	}
	return p
}

// slotAt is the row position of clock ci and throughput_proc ti.
func (c *Compiled) slotAt(ci, ti int) slot {
	off := ci*len(c.tps) + ti
	return slot{d: c.denom[off], clock: c.clocks[ci], tp: c.tps[ti], off: uint64(off)}
}

// axisOrder returns the indices of vals in ascending order of value.
// Axis values are finite and distinct, so the order is total.
func axisOrder(vals []float64) []int32 {
	idx := make([]int32, len(vals))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return order(vals[a] < vals[b]) })
	return idx
}

// mergeRuns sorts src by (d, off), given that it is made of runs of
// width positions each already in that order: a bottom-up merge that
// ping-pongs between src and spare (of src's length). It returns the
// buffer holding the result and the one left free.
func mergeRuns(src, spare []slot, width int) (sorted, free []slot) {
	n := len(src)
	for ; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				if j == hi || i < mid && slotLess(&src[i], &src[j]) {
					spare[k] = src[i]
					i++
				} else {
					spare[k] = src[j]
					j++
				}
			}
		}
		src, spare = spare, src
	}
	return src, spare
}

// order is a three-way comparison result for two distinct keys.
func order(less bool) int {
	if less {
		return -1
	}
	return 1
}

// slotLess is the byD order: d, then off. Offsets are distinct and no
// product is NaN, so it is total.
func slotLess(a, b *slot) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.off < b.off
}

// runShard explores candidates [lo, hi): the full rows by the row
// walk, the rows the range cuts (and every row of a short-row grid)
// by evalShard.
func (st *workerState) runShard(p *plan, lo, hi uint64) {
	if p.byD == nil {
		st.evalShard(p.c, p.cons, lo, hi, p.frontier)
		return
	}
	n := p.rowLen
	first, last := (lo+n-1)/n*n, hi/n*n
	if first >= last {
		st.evalShard(p.c, p.cons, lo, hi, p.frontier)
		return
	}
	if lo < first {
		st.evalShard(p.c, p.cons, lo, first, p.frontier)
	}
	if last < hi {
		st.evalShard(p.c, p.cons, last, hi, p.frontier)
	}
	for from := first; from < last; from += rowBatch * n {
		st.walkRows(p, from, min(from+rowBatch*n, last))
	}
}

// row is one full row's invariants, computed by evalShard's
// expressions so every number is bit-for-bit the exhaustive loop's.
type row struct {
	start                            uint64 // index of the row's first candidate
	opsCoeff, n, tComm, iters, tSoft float64
	double                           bool
	// cand holds the row's fixed fields; walks copy it and fill in
	// the rest per position.
	cand Candidate
}

// point is one position's Eq. 4-11 numbers.
type point struct {
	tComp, trc, speedup, utilComm, utilComp float64
}

// initRow sets r to the invariants of the row starting at index start.
func (p *plan) initRow(r *row, start uint64) {
	c := p.c
	bi, ai, di, ui, _, _ := c.decode(start)
	na := len(c.alphas)
	b := &c.blocks[bi]
	devices := c.devs[di]
	n := float64(devices)
	tComm := c.tRead[bi*na+ai] + c.tWrite[bi*na+ai]
	if c.topo == core.IndependentChannels {
		tComm = tComm / n
	}
	r.start, r.opsCoeff, r.n, r.tComm = start, b.opsCoeff, n, tComm
	r.iters, r.tSoft = float64(b.iters), c.base.Soft.TSoft
	r.double = c.bufs[ui] == core.DoubleBuffered
	r.cand = Candidate{
		AlphaWrite: c.alphas[ai].write, AlphaRead: c.alphas[ai].read,
		ElementsIn: b.elemsIn, ElementsOut: b.elemsOut, Iterations: b.iters,
		Devices: devices, Buffering: c.bufs[ui], TComm: tComm,
	}
}

// at evaluates the row at d, expression by expression as evalShard
// does.
//
//rat:hotpath
func (r *row) at(d float64) point {
	tComp := r.opsCoeff / d
	tComp = tComp / r.n
	var tIter float64
	if r.double {
		tIter = max(r.tComm, tComp)
	} else {
		tIter = r.tComm + tComp
	}
	trc := r.iters * tIter
	pt := point{tComp: tComp, trc: trc, utilComm: r.tComm / tIter, utilComp: tComp / tIter}
	if r.tSoft > 0 {
		pt.speedup = r.tSoft / trc
	}
	return pt
}

// set fills cand's per-position fields from slot s and its numbers.
func (r *row) set(cand *Candidate, s *slot, pt *point) {
	cand.Index = r.start + s.off
	cand.ClockHz = s.clock
	cand.ThroughputProc = s.tp
	cand.TComp = pt.tComp
	cand.TRC = pt.trc
	cand.Speedup = pt.speedup
	cand.UtilComm = pt.utilComm
	cand.UtilComp = pt.utilComp
}

// utilBound returns an upper bound of util_comp over positions at or
// above the one whose util_comp is uc. Double-buffered util_comp never
// rises with d; single-buffered it rises by at most utilCompMargin
// ulps, and never above 1.
func (r *row) utilBound(uc float64) float64 {
	if r.double {
		return uc
	}
	return min(1, math.Float64frombits(math.Float64bits(uc)+utilCompMargin))
}

// rowPlan is a full row with a non-empty feasible interval.
type rowPlan struct {
	row
	lo, hi int   // feasible positions of byD: [lo, hi)
	best   point // the numbers at byD[hi-1], the row's best end
	// costFrom is where a MinCost walk starts in byCost: the row's
	// cheapest feasible position.
	costFrom int
}

// walkRows explores the full rows [lo, hi), at most rowBatch of them:
// it bounds every row, walks them for the top-K best-first by their
// best end, then for the frontier fewest devices first, so the
// worker's K-th and frontier are strong before the weaker rows are
// reached.
func (st *workerState) walkRows(p *plan, lo, hi uint64) {
	n := int((hi - lo) / p.rowLen)
	if cap(st.rows) < n {
		// Shards are near-equal, so a worker sizes these once.
		st.rows, st.order = make([]rowPlan, n), make([]int32, 0, n)
	}
	rows, live := st.rows[:n], st.order[:0]
	for i := range rows {
		p.initRow(&rows[i].row, lo+uint64(i)*p.rowLen)
		if st.bound(p, &rows[i]) {
			live = append(live, int32(i))
		}
	}
	obj := p.obj
	slices.SortFunc(live, func(a, b int32) int {
		// rp.cand carries each row's best end as a key; keys of
		// distinct rows carry distinct indices, so the order is total.
		return order(obj.better(&rows[a].cand, &rows[b].cand))
	})
	for _, i := range live {
		if obj == MinCost {
			st.walkCost(p, &rows[i])
		} else {
			st.walkTop(p, &rows[i])
		}
	}
	if !p.frontier {
		return
	}
	// The frontier's own best-first order: fewest devices, then the
	// highest best-end speedup. A member dominates only candidates of
	// as many devices or more, so early members cover the most boxes
	// and few are evicted later.
	slices.SortFunc(live, func(a, b int32) int {
		ra, rb := &rows[a], &rows[b]
		if ra.cand.Devices != rb.cand.Devices {
			return order(ra.cand.Devices < rb.cand.Devices)
		}
		if ra.best.speedup != rb.best.speedup {
			return order(ra.best.speedup > rb.best.speedup)
		}
		return order(ra.start < rb.start)
	})
	for _, i := range live {
		st.walkFront(p, &rows[i])
	}
}

// bound finds the row's feasible interval, adds its length to the
// feasible count and records the row's best end as its sort key. It
// reports whether any position is feasible.
func (st *workerState) bound(p *plan, rp *rowPlan) bool {
	cs := &p.cons
	if !cs.devicesOK(rp.cand.Devices) {
		return false
	}
	m := len(p.byD)
	top := rp.at(p.byD[m-1].d)
	st.evals++
	if !cs.lowOK(top.speedup, top.trc) {
		return false
	}
	// The low end: the first position that passes MinSpeedup and
	// MaxTRC. The search stops short of the top, which passes.
	lo, hi := 0, m-1
	if cs.MinSpeedup > 0 || cs.MaxTRC > 0 {
		for lo < hi {
			h := int(uint(lo+hi) >> 1)
			pt := rp.at(p.byD[h].d)
			st.evals++
			if cs.lowOK(pt.speedup, pt.trc) {
				hi = h
			} else {
				lo = h + 1
			}
		}
	}
	rp.lo, rp.hi, rp.best = lo, m, top
	if !cs.highOK(top.utilComm) {
		// The high end: the first position at or above lo that fails
		// MaxUtilComm. The top fails it, so the search stops short.
		hi = m - 1
		for lo < hi {
			h := int(uint(lo+hi) >> 1)
			pt := rp.at(p.byD[h].d)
			st.evals++
			if cs.highOK(pt.utilComm) {
				lo = h + 1
			} else {
				hi = h
			}
		}
		rp.hi = lo
		if rp.hi == rp.lo {
			return false
		}
		rp.best = rp.at(p.byD[rp.hi-1].d)
		st.evals++
	}
	st.feasible += uint64(rp.hi - rp.lo)

	if p.obj != MinCost {
		rp.set(&rp.cand, &p.byD[rp.hi-1], &rp.best)
		return true
	}
	dLo, dHi := p.byD[rp.lo].d, p.byD[rp.hi-1].d
	for j := range p.byCost {
		if s := &p.byCost[j]; s.d >= dLo && s.d <= dHi {
			rp.costFrom = j
			rp.cand.Index = rp.start + s.off
			rp.cand.ClockHz, rp.cand.ThroughputProc = s.clock, s.tp
			break
		}
	}
	return true
}

// walkTop offers the row's candidates to the top-K from its best end
// (MaxSpeedup and MinTRC are best at the highest d) and stops at the
// first value strictly worse than the K-th: every later position's
// value is no better. A tie does not stop the walk, since a tied
// candidate with a smaller index still outranks the K-th.
//
//rat:hotpath
func (st *workerState) walkTop(p *plan, rp *rowPlan) {
	cand := rp.cand
	pt := rp.best
	for j := rp.hi - 1; ; {
		if st.top.full() && p.obj.worseValue(&pt, &st.top.items[0]) {
			return
		}
		rp.set(&cand, &p.byD[j], &pt)
		st.top.offer(&cand)
		if j--; j < rp.lo {
			return
		}
		pt = rp.at(p.byD[j].d)
		st.evals++
	}
}

// walkCost offers the row's feasible candidates to a MinCost top-K in
// rank order, throughput_proc then clock ascending, and stops at the
// first one the K-th beats: it ranks by structure, so the check needs
// no evaluation and every later position ranks lower still.
//
//rat:hotpath
func (st *workerState) walkCost(p *plan, rp *rowPlan) {
	cand := rp.cand
	dLo, dHi := p.byD[rp.lo].d, p.byD[rp.hi-1].d
	for j := rp.costFrom; j < len(p.byCost); j++ {
		s := &p.byCost[j]
		if s.d < dLo || s.d > dHi {
			continue
		}
		cand.Index = rp.start + s.off
		cand.ClockHz, cand.ThroughputProc = s.clock, s.tp
		if st.top.full() && p.obj.better(&st.top.items[0], &cand) {
			return
		}
		pt := rp.at(s.d)
		st.evals++
		rp.set(&cand, s, &pt)
		st.top.offer(&cand)
	}
}

// walkFront folds the row's feasible candidates into the worker's
// frontier, skipping boxes of sorted positions whose ideal corner a
// member already dominates. The search has two levels: the whole
// feasible interval, then leaves of leafSize positions. A leaf's
// corner takes its speedup from the next leaf's first position (or
// the row's best end), and its util_comp bound from its own first
// position, so each leaf costs one evaluation to test.
//
//rat:hotpath
func (st *workerState) walkFront(p *plan, rp *rowPlan) {
	lo, hi := rp.lo, rp.hi
	cur := rp.at(p.byD[lo].d)
	st.evals++
	if st.covered(rp.best.speedup, rp.utilBound(cur.utilComp), rp.cand.Devices) {
		return
	}
	if hi-lo <= leafSize {
		st.leaf(p, rp, lo, hi)
		return
	}
	for a := lo; a < hi; a += leafSize {
		b := min(a+leafSize, hi)
		next := rp.best
		if b < hi {
			next = rp.at(p.byD[b].d)
			st.evals++
		}
		if !st.covered(next.speedup, rp.utilBound(cur.utilComp), rp.cand.Devices) {
			st.leaf(p, rp, a, b)
		}
		cur = next
	}
}

// leaf evaluates positions [a, b) of byD and offers the frontier the
// leaf's own skyline, highest d first.
//
//rat:hotpath
func (st *workerState) leaf(p *plan, rp *rowPlan, a, b int) {
	var pts [leafSize]point
	n := b - a
	for i := range n {
		pts[i] = rp.at(p.byD[a+i].d)
	}
	st.evals += uint64(n)
	cand := rp.cand
	for keep := skyline(pts[:n]); keep != 0; {
		i := bits.Len32(keep) - 1
		keep &^= 1 << i
		rp.set(&cand, &p.byD[a+i], &pts[i])
		st.front = insertFrontier(st.front, &cand)
	}
}

// skyline returns, as a set of bits over pts, the points that no other
// point of pts dominates, given that they share one device count and
// that speedup never falls along pts: a leaf's positions in d order.
// A sweep from the last point down then meets speedups in
// non-increasing order, equal ones side by side. A point survives when
// its util_comp is the highest of its equal-speedup group and above
// every util_comp swept before the group; all members of a tied vector
// survive together. The sweep assumes nothing of util_comp's order.
//
// Only survivors need to reach the frontier: any other point is
// dominated by one in the leaf, so by transitivity it can never be a
// member, and whatever it would evict, a survivor evicts too.
//
//rat:hotpath
func skyline(pts []point) (keep uint32) {
	above := math.Inf(-1) // the highest util_comp at a higher speedup
	for hi := len(pts); hi > 0; {
		// The group [lo, hi) shares one speedup.
		lo, peak := hi-1, pts[hi-1].utilComp
		for lo > 0 && pts[lo-1].speedup == pts[hi-1].speedup {
			lo--
			peak = max(peak, pts[lo].utilComp)
		}
		if peak > above {
			for i := lo; i < hi; i++ {
				if pts[i].utilComp == peak {
					keep |= 1 << i
				}
			}
			above = peak
		}
		hi = lo
	}
	return keep
}

// covered reports whether a frontier member dominates the corner
// (speedup, utilComp, devices). A box whose candidates are at most the
// corner on speedup and util_comp, at its device count, is then
// dominated by that member too: the strict axis of the domination
// holds against every one of them. Like insertFrontier, it moves the
// dominating member to the front.
//
//rat:hotpath
func (st *workerState) covered(speedup, utilComp float64, devices int) bool {
	corner := Candidate{Speedup: speedup, UtilComp: utilComp, Devices: devices}
	for i := range st.front {
		if dominates(&st.front[i], &corner) {
			if i > 0 {
				st.front[0], st.front[i] = st.front[i], st.front[0]
			}
			return true
		}
	}
	return false
}
