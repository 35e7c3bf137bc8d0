package explore

import "slices"

// EvalIndices evaluates exactly the given candidate indices through
// the same memoized arithmetic as Run and returns the candidates that
// satisfy cons, sorted by index. Duplicate indices are evaluated once.
//
// It exists for the distributed merge (internal/cluster): shard
// results travel across the wire as candidate indices, and the
// coordinator re-derives every candidate's exact numbers locally —
// so lossy wire renderings (clocks travel in MHz, a division whose
// last bit need not survive the round trip) can never perturb a
// merge. Each index runs through evalShard over the one-element range
// [idx, idx+1), which is bit-for-bit the whole-grid evaluation of
// that candidate.
func EvalIndices(g Grid, cons Constraints, indices []uint64) ([]Candidate, error) {
	c, err := g.Compile()
	if err != nil {
		return nil, err
	}
	sorted := append([]uint64(nil), indices...)
	slices.Sort(sorted)
	out := make([]Candidate, 0, len(sorted))
	var prev uint64
	seen := false
	for _, idx := range sorted {
		if seen && idx == prev {
			continue
		}
		prev, seen = idx, true
		if idx >= c.size {
			return nil, errGrid("candidate index %d out of range (grid size %d)", idx, c.size)
		}
		var st workerState
		st.top.init(1, MaxSpeedup)
		st.evalShard(c, cons, idx, idx+1, false)
		if len(st.top.items) == 1 {
			out = append(out, st.top.items[0])
		}
	}
	return out, nil
}

// SelectTop returns the best k of cands under the objective's total
// order, best first; k < 0 keeps everything. The input is not
// modified. It is the ranking half of the distributed merge: the
// union of per-shard top-Ks re-ranked by the same total order
// reproduces the whole-grid top-K, because the global best k are each
// in their own shard's best k.
func SelectTop(obj Objective, k int, cands []Candidate) []Candidate {
	out := append([]Candidate(nil), cands...)
	slices.SortFunc(out, func(a, b Candidate) int { return order(obj.better(&a, &b)) })
	if k >= 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
