package explore

import (
	"cmp"
	"slices"
)

// Pareto-frontier extraction over the three-way trade-off the paper's
// design-space discussion turns on: predicted speedup (up), computation
// utilization (up — idle compute is wasted fabric), and device count
// (down — hardware is the cost axis). A candidate is on the frontier
// when no other feasible candidate is at least as good on all three
// axes and strictly better on one. Candidates with identical objective
// vectors are all kept, so the frontier is a pure function of the
// feasible set and independent of evaluation order.

// dominates reports whether a dominates b: no worse on every axis,
// strictly better on at least one.
func dominates(a, b *Candidate) bool {
	if a.Speedup < b.Speedup || a.UtilComp < b.UtilComp || a.Devices > b.Devices {
		return false
	}
	return a.Speedup > b.Speedup || a.UtilComp > b.UtilComp || a.Devices < b.Devices
}

// insertFrontier folds c into a running frontier: drop c if dominated,
// otherwise evict everything c dominates and keep it. The front stays
// small in practice (it is bounded by the number of distinct
// non-dominated objective vectors), so the quadratic worst case is
// irrelevant next to the grid evaluation.
//
// The front is self-organising, as in the block-nested-loops skyline
// method: a member that dominates c swaps places with the first
// member. The member that rejected one candidate usually rejects the
// next, so a typical dominated candidate costs one comparison. Member
// order is never observable: the front is a set, and Frontier sorts it
// by index.
//
//rat:hotpath
func insertFrontier(front []Candidate, c *Candidate) []Candidate {
	w := 0
	for i := range front {
		if dominates(&front[i], c) {
			// Nothing was evicted yet (w == i): a member c dominates
			// and a member that dominates c cannot both be in the
			// front, since dominance is transitive.
			if i > 0 {
				front[0], front[i] = front[i], front[0]
			}
			return front
		}
		if !dominates(c, &front[i]) {
			if w != i {
				front[w] = front[i]
			}
			w++
		}
	}
	return append(front[:w], *c)
}

// mergeFrontiers combines per-worker frontiers into the global one.
// Each worker's front is non-dominated within its own candidates, so
// worker 0's front is taken as it is and the others are folded into
// it, which removes cross-worker dominations. The result is sorted by
// candidate index, which makes it independent of worker count and
// shard order.
func mergeFrontiers(states []workerState) []Candidate {
	front := states[0].front
	for i := 1; i < len(states); i++ {
		for j := range states[i].front {
			front = insertFrontier(front, &states[i].front[j])
		}
	}
	sortCandidates(front, byIndex)
	return front
}

// Frontier returns the Pareto-optimal subset of cands on the
// (speedup, computation utilization, device count) trade-off, sorted
// by candidate index. The input is not modified.
func Frontier(cands []Candidate) []Candidate {
	var front []Candidate
	for i := range cands {
		front = insertFrontier(front, &cands[i])
	}
	sortCandidates(front, byIndex)
	return front
}

// byIndex orders candidates by grid index.
func byIndex(a, b *Candidate) int { return cmp.Compare(a.Index, b.Index) }

// sortCandidates sorts cands by the total order cmp. It sorts a
// permutation of int32 indices and then moves each Candidate once:
// sorting the Candidates themselves copies two of them per comparison
// and three per swap.
func sortCandidates(cands []Candidate, cmp func(a, b *Candidate) int) {
	var buf [permOnStack]int32
	perm := sortedPerm(cands, buf[:0], cmp)
	// Cycle by cycle, cands[i] takes the Candidate at perm[i]; a placed
	// position's entry becomes -1.
	for i := range perm {
		j := int(perm[i])
		if j < 0 || j == i {
			continue
		}
		held, k := cands[i], i
		for j != i {
			cands[k], perm[k] = cands[j], -1
			k, j = j, int(perm[j])
		}
		cands[k], perm[k] = held, -1
	}
}

// permOnStack is the longest permutation the sorts keep on the stack;
// a longer one is allocated.
const permOnStack = 256

// sortedPerm returns, in perm's storage, the indices of cands in the
// order cmp sorts them.
func sortedPerm(cands []Candidate, perm []int32, cmp func(a, b *Candidate) int) []int32 {
	perm = perm[:0]
	for i := range cands {
		perm = append(perm, int32(i))
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp(&cands[a], &cands[b]) })
	return perm
}
