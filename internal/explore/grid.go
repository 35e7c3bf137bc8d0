// Package explore is the design-space exploration engine of the RAT
// reproduction: it evaluates grids of millions of candidate worksheets
// (clock x throughput_proc x alpha x block size x device count x
// buffering) through the throughput test's batch kernel, in parallel
// across a sharded worker pool, streaming the results into a top-K
// selection and a Pareto frontier so the full grid never materializes
// in memory.
//
// The engine is deterministic: for a given grid, objective and
// constraints, the returned top-K ordering and frontier are identical
// for any worker count, because every candidate has a stable index and
// all comparisons fall back to that index. Per-candidate numbers are
// bit-for-bit the values core.Predict (one device) or core.PredictMulti
// (several) would return for the materialized worksheet.
package explore

import (
	"fmt"
	"math"

	"github.com/chrec/rat/internal/core"
)

// Grid describes a Cartesian design space around a base worksheet.
// Empty axes keep the base value, so the zero grid evaluates exactly
// one candidate: the base itself.
type Grid struct {
	// Base is the worksheet every candidate starts from. It must
	// validate; axis values replace its fields per candidate.
	Base core.Parameters

	// Clocks are FPGA clock frequencies in Hz (core.MHz helps).
	Clocks []float64
	// ThroughputProcs are sustained ops/cycle values.
	ThroughputProcs []float64
	// Alphas are sustained interconnect fractions in (0, 1], applied
	// to both directions (the single-knob form of the paper's
	// per-direction alphas; leave empty to keep the base's pair).
	Alphas []float64
	// BlockSizes are ElementsIn values. The output block and the
	// iteration count rescale with each block size so the total
	// problem (ElementsIn x Iterations and the software baseline)
	// stays constant: iterations = ceil(total/elements).
	BlockSizes []int64
	// Devices are FPGA counts evaluated through the multi-FPGA
	// extension; empty means single-device.
	Devices []int
	// Topology is the multi-FPGA interconnect arrangement used for
	// device counts above one.
	Topology core.Topology
	// Bufferings are the overlap disciplines to evaluate; empty
	// means both single- and double-buffered.
	Bufferings []core.Buffering
}

// maxGridSize bounds a grid's candidate count. The engine streams, so
// the bound protects against runaway axis products (and index
// overflow), not memory.
const maxGridSize = 1 << 40

// blockAxis is one precompiled block-size point.
type blockAxis struct {
	elemsIn, elemsOut, iters int64
	bytesIn, bytesOut        float64
	opsCoeff                 float64 // float64(elemsIn) * OpsPerElement, the Eq. 4 numerator
}

// alphaAxis is one precompiled interconnect-efficiency point.
type alphaAxis struct {
	write, read float64
}

// Compiled is the normalized, validated form of a Grid: every axis
// non-empty, every derived sub-term precomputed. Grid.Compile builds
// it once per request; Size and any number of Runs then share it
// read-only, as do all of a Run's workers — the "validate once per
// grid" half of the batch contract.
type Compiled struct {
	base   core.Parameters
	blocks []blockAxis
	alphas []alphaAxis
	devs   []int
	bufs   []core.Buffering
	clocks []float64
	tps    []float64
	topo   core.Topology

	// Memoized per-candidate sub-terms, invariant across the two
	// innermost axes: t_write/t_read split by (block, alpha) and the
	// Eq. 4 denominator by (clock, throughput_proc).
	tWrite []float64 // [block][alpha], flattened
	tRead  []float64 // [block][alpha], flattened
	denom  []float64 // [clock][tp], flattened: ClockHz * ThroughputProc

	size uint64
}

// errGrid builds a grid-validation error wrapping ErrInvalidParameters.
func errGrid(format string, args ...any) error {
	return fmt.Errorf("%w: explore grid: %s", core.ErrInvalidParameters, fmt.Sprintf(format, args...))
}

// checkAxis rejects NaN/Inf and duplicate axis values, mirroring the
// sweep-value rules of core.Sweep.
func checkAxis(name string, values []float64) error {
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errGrid("%s[%d] must be finite (got %v)", name, i, v)
		}
		for j := 0; j < i; j++ {
			if values[j] == v {
				return errGrid("%s has duplicate value %v", name, v)
			}
		}
	}
	return nil
}

// Compile validates the grid and precomputes every invariant sub-term
// of the candidate evaluation, including the overflow check. Its
// errors wrap core.ErrInvalidParameters.
func (g Grid) Compile() (*Compiled, error) {
	c, err := g.precompute()
	if err != nil {
		return nil, err
	}
	if err := c.checkFinite(); err != nil {
		return nil, err
	}
	return c, nil
}

// precompute is Compile without the overflow check: it validates the
// axes and builds the memo tables.
func (g Grid) precompute() (*Compiled, error) {
	if err := g.Base.Validate(); err != nil {
		return nil, fmt.Errorf("explore grid base: %w", err)
	}
	if err := checkAxis("Clocks", g.Clocks); err != nil {
		return nil, err
	}
	for i, v := range g.Clocks {
		if !(v > 0) {
			return nil, errGrid("Clocks[%d] must be positive (got %v)", i, v)
		}
	}
	if err := checkAxis("ThroughputProcs", g.ThroughputProcs); err != nil {
		return nil, err
	}
	for i, v := range g.ThroughputProcs {
		if !(v > 0) {
			return nil, errGrid("ThroughputProcs[%d] must be positive (got %v)", i, v)
		}
	}
	if err := checkAxis("Alphas", g.Alphas); err != nil {
		return nil, err
	}
	for i, v := range g.Alphas {
		if !(v > 0) || v > 1 {
			return nil, errGrid("Alphas[%d] must be in (0, 1] (got %v)", i, v)
		}
	}
	for i, v := range g.BlockSizes {
		if v <= 0 {
			return nil, errGrid("BlockSizes[%d] must be positive (got %d)", i, v)
		}
		for j := 0; j < i; j++ {
			if g.BlockSizes[j] == v {
				return nil, errGrid("BlockSizes has duplicate value %d", v)
			}
		}
	}
	for i, v := range g.Devices {
		if v < 1 {
			return nil, errGrid("Devices[%d] must be >= 1 (got %d)", i, v)
		}
		for j := 0; j < i; j++ {
			if g.Devices[j] == v {
				return nil, errGrid("Devices has duplicate value %d", v)
			}
		}
	}
	if g.Topology != core.SharedChannel && g.Topology != core.IndependentChannels {
		return nil, errGrid("unknown topology %v", g.Topology)
	}
	for i, b := range g.Bufferings {
		if b != core.SingleBuffered && b != core.DoubleBuffered {
			return nil, errGrid("Bufferings[%d] is unknown discipline %v", i, b)
		}
		for j := 0; j < i; j++ {
			if g.Bufferings[j] == b {
				return nil, errGrid("Bufferings has duplicate discipline %v", b)
			}
		}
	}

	c := &Compiled{base: g.Base, topo: g.Topology}

	// Normalize axes: an empty axis is the base value alone.
	c.clocks = g.Clocks
	if len(c.clocks) == 0 {
		c.clocks = []float64{g.Base.Comp.ClockHz}
	}
	c.tps = g.ThroughputProcs
	if len(c.tps) == 0 {
		c.tps = []float64{g.Base.Comp.ThroughputProc}
	}
	c.alphas = make([]alphaAxis, 0, len(g.Alphas)+1)
	if len(g.Alphas) == 0 {
		c.alphas = append(c.alphas, alphaAxis{write: g.Base.Comm.AlphaWrite, read: g.Base.Comm.AlphaRead})
	}
	for _, a := range g.Alphas {
		c.alphas = append(c.alphas, alphaAxis{write: a, read: a})
	}
	c.devs = g.Devices
	if len(c.devs) == 0 {
		c.devs = []int{1}
	}
	c.bufs = g.Bufferings
	if len(c.bufs) == 0 {
		c.bufs = []core.Buffering{core.SingleBuffered, core.DoubleBuffered}
	}

	// Block-size axis: rescale the iteration count so the total
	// problem is conserved, exactly as a designer resizing the
	// buffered block would (examples/sweep does this by hand).
	if g.Base.Soft.Iterations > math.MaxInt64/g.Base.Dataset.ElementsIn {
		return nil, errGrid("total problem size ElementsIn x Iterations (%d x %d) overflows int64",
			g.Base.Dataset.ElementsIn, g.Base.Soft.Iterations)
	}
	total := g.Base.Dataset.ElementsIn * g.Base.Soft.Iterations
	sizes := g.BlockSizes
	if len(sizes) == 0 {
		sizes = []int64{g.Base.Dataset.ElementsIn}
	}
	c.blocks = make([]blockAxis, len(sizes))
	for i, e := range sizes {
		b := blockAxis{elemsIn: e}
		b.iters = (total-1)/e + 1 // ceil(total/e) without overflowing total+e-1
		elemsOut := math.Round(float64(g.Base.Dataset.ElementsOut) * float64(e) / float64(g.Base.Dataset.ElementsIn))
		if !(elemsOut < 1<<63) {
			return nil, errGrid("ElementsOut overflows int64 at block size %d (got %v)", e, elemsOut)
		}
		b.elemsOut = int64(elemsOut)
		b.bytesIn = float64(b.elemsIn) * g.Base.Dataset.BytesPerElement
		b.bytesOut = float64(b.elemsOut) * g.Base.Dataset.BytesPerElement
		b.opsCoeff = float64(b.elemsIn) * g.Base.Comp.OpsPerElement
		c.blocks[i] = b
	}

	// Grid size, with overflow protection.
	size := uint64(1)
	for _, n := range []int{len(c.blocks), len(c.alphas), len(c.devs), len(c.bufs), len(c.clocks), len(c.tps)} {
		size *= uint64(n)
		if size > maxGridSize {
			return nil, errGrid("candidate count exceeds %d", uint64(maxGridSize))
		}
	}
	c.size = size

	// Memoized communication split: Eqs. 2-3 per (block, alpha), the
	// exact expressions core.Predict uses so the batch path stays
	// bit-for-bit comparable.
	ideal := g.Base.Comm.IdealThroughput
	c.tWrite = make([]float64, len(c.blocks)*len(c.alphas))
	c.tRead = make([]float64, len(c.blocks)*len(c.alphas))
	for bi, b := range c.blocks {
		for ai, a := range c.alphas {
			c.tWrite[bi*len(c.alphas)+ai] = b.bytesIn / (a.write * ideal)
			c.tRead[bi*len(c.alphas)+ai] = b.bytesOut / (a.read * ideal)
		}
	}
	// Memoized Eq. 4 denominator per (clock, throughput_proc).
	c.denom = make([]float64, len(c.clocks)*len(c.tps))
	for ci, hz := range c.clocks {
		for ti, tp := range c.tps {
			c.denom[ci*len(c.tps)+ti] = hz * tp
		}
	}
	return c, nil
}

// checkFinite rejects a grid whose derived numbers overflow. Every
// field of a worksheet can validate while a product does not:
// BytesPerElement 1e300 with a 2^40-element block makes t_comm +Inf
// and the utilizations NaN.
//
// Under IEEE rounding each candidate number is a monotone function of
// the memoized sub-terms, so for each block size its extremes are real
// candidates at the grid's corners: the largest at the slowest alpha,
// the smallest clock x throughput_proc and the fewest devices, the
// smallest at the opposite corner. The check evaluates both corners by
// evalShard's expressions, per block size and per buffering the grid
// evaluates. When the largest t_comm, t_comp and t_rc are finite, the
// smallest t_rc is above 0 and t_soft over it is finite, every
// candidate's numbers, the utilizations included, are finite; when
// not, a corner candidate itself is not. The hot loop therefore needs
// no check of its own.
func (c *Compiled) checkFinite() error {
	na := len(c.alphas)
	denomLo, denomHi := c.denom[0], c.denom[0]
	for _, d := range c.denom[1:] {
		denomLo, denomHi = min(denomLo, d), max(denomHi, d)
	}
	devLo, devHi := c.devs[0], c.devs[0]
	for _, d := range c.devs[1:] {
		devLo, devHi = min(devLo, d), max(devHi, d)
	}
	nLo, nHi := float64(devLo), float64(devHi)
	tSoft := c.base.Soft.TSoft
	for bi := range c.blocks {
		b := &c.blocks[bi]
		commLo := c.tRead[bi*na] + c.tWrite[bi*na]
		commHi := commLo
		for ai := 1; ai < na; ai++ {
			s := c.tRead[bi*na+ai] + c.tWrite[bi*na+ai]
			commLo, commHi = min(commLo, s), max(commHi, s)
		}
		if c.topo == core.IndependentChannels {
			commLo = commLo / nHi
			commHi = commHi / nLo
		}
		compLo := b.opsCoeff / denomHi
		compLo = compLo / nHi
		compHi := b.opsCoeff / denomLo
		compHi = compHi / nLo
		if !isFinite(commHi) {
			return errGrid("TComm overflows at block size %d (got %v)", b.elemsIn, commHi)
		}
		if !isFinite(compHi) {
			return errGrid("TComp overflows at block size %d (got %v)", b.elemsIn, compHi)
		}
		iters := float64(b.iters)
		for _, buf := range c.bufs {
			trcLo, trcHi := iters*(commLo+compLo), iters*(commHi+compHi)
			if buf == core.DoubleBuffered {
				trcLo, trcHi = iters*max(commLo, compLo), iters*max(commHi, compHi)
			}
			if !isFinite(trcHi) {
				return errGrid("TRC overflows at block size %d, %v (got %v)", b.elemsIn, buf, trcHi)
			}
			if !(trcLo > 0) {
				return errGrid("TRC underflows to %v at block size %d, %v, which makes the utilizations NaN",
					trcLo, b.elemsIn, buf)
			}
			if tSoft > 0 && !isFinite(tSoft/trcLo) {
				return errGrid("Speedup overflows at block size %d, %v (got %v)", b.elemsIn, buf, tSoft/trcLo)
			}
		}
	}
	return nil
}

// isFinite reports whether v is neither NaN nor an infinity.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// decode splits a candidate index into its axis indices. The layout is
// fixed — blocks, alphas, devices, bufferings, clocks, throughput_procs
// from outermost to innermost — so contiguous index ranges share the
// expensive outer-axis sub-terms.
func (c *Compiled) decode(idx uint64) (bi, ai, di, ui, ci, ti int) {
	ti = int(idx % uint64(len(c.tps)))
	idx /= uint64(len(c.tps))
	ci = int(idx % uint64(len(c.clocks)))
	idx /= uint64(len(c.clocks))
	ui = int(idx % uint64(len(c.bufs)))
	idx /= uint64(len(c.bufs))
	di = int(idx % uint64(len(c.devs)))
	idx /= uint64(len(c.devs))
	ai = int(idx % uint64(len(c.alphas)))
	idx /= uint64(len(c.alphas))
	bi = int(idx)
	return
}

// params materializes the full worksheet of candidate idx — the
// Parameters that core.Predict / core.PredictMulti would be handed to
// reproduce the candidate's numbers scalar-wise.
func (c *Compiled) params(idx uint64) (core.Parameters, core.MultiConfig, core.Buffering) {
	bi, ai, di, ui, ci, ti := c.decode(idx)
	p := c.base
	b := c.blocks[bi]
	p.Dataset.ElementsIn = b.elemsIn
	p.Dataset.ElementsOut = b.elemsOut
	p.Soft.Iterations = b.iters
	p.Comm.AlphaWrite = c.alphas[ai].write
	p.Comm.AlphaRead = c.alphas[ai].read
	p.Comp.ClockHz = c.clocks[ci]
	p.Comp.ThroughputProc = c.tps[ti]
	return p, core.MultiConfig{Devices: c.devs[di], Topology: c.topo}, c.bufs[ui]
}

// Size returns the compiled grid's candidate count.
func (c *Compiled) Size() uint64 { return c.size }

// Validate reports whether the grid can be explored.
func (g Grid) Validate() error {
	_, err := g.Compile()
	return err
}

// Size returns the candidate count of the grid, or 0 when the grid is
// invalid.
func (g Grid) Size() uint64 {
	c, err := g.Compile()
	if err != nil {
		return 0
	}
	return c.Size()
}

// At materializes candidate i of the grid: the full worksheet, the
// multi-FPGA configuration and the buffering discipline. Feeding the
// returned values to core.Predict (one device) or core.PredictMulti
// reproduces the engine's numbers bit for bit.
func (g Grid) At(i uint64) (core.Parameters, core.MultiConfig, core.Buffering, error) {
	c, err := g.Compile()
	if err != nil {
		return core.Parameters{}, core.MultiConfig{}, 0, err
	}
	if i >= c.size {
		return core.Parameters{}, core.MultiConfig{}, 0,
			errGrid("candidate index %d out of range (grid size %d)", i, c.size)
	}
	p, mc, b := c.params(i)
	return p, mc, b, nil
}
