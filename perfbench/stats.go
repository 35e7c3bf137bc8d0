package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile for the
// benchmark to report it: the highest percentile a sample supports is
// the one with at least minTail samples above it.
const minTail = 10

// supports reports whether n exact samples support percentile q (in
// (0, 1)): at least minTail of them lie beyond it.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail-1e-9 // 1-q is inexact for q = 0.9
}

// highestSupported returns the highest of 0.5, 0.9, 0.99, 0.999 and
// 0.9999 that n samples support, or 0 when not even the median is.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		if supports(n, q) {
			best = q
		}
	}
	return best
}

// percentile returns the nearest-rank q-th percentile of sorted exact
// samples. It refuses a percentile the sample cannot support, so a run
// too short for its p99 fails loudly instead of reporting its maximum.
func percentile(sorted []int64, q float64) (int64, error) {
	if !supports(len(sorted), q) {
		return 0, fmt.Errorf("%d samples cannot support p%g: need at least %d beyond it",
			len(sorted), 100*q, minTail)
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[rank-1], nil
}

// maxWindows caps how many windows windowedP99 splits a run into.
const maxWindows = 10

// windowedP99 is the run's p99 made robust to a passing disturbance:
// the requests, in order of their start, are split into up to
// maxWindows consecutive windows of equal count, each large enough to
// support its own exact p99, and the median of those p99s is returned
// with the window count. One window holding a neighbour's burst moves
// the figure no more than any other single window. It fails when the
// run as a whole cannot support a p99.
func windowedP99(starts []time.Time, latencies []int64) (int64, int, error) {
	n := len(latencies)
	if !supports(n, 0.99) {
		return 0, 0, fmt.Errorf("%d samples cannot support p99: need at least %d beyond it", n, minTail)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return starts[order[a]].Before(starts[order[b]]) })
	w := 1
	for w < maxWindows && supports(n/(w+1), 0.99) {
		w++
	}
	p99s := make([]float64, w)
	for k := range p99s {
		lo, hi := k*n/w, (k+1)*n/w
		chunk := make([]int64, 0, hi-lo)
		for _, i := range order[lo:hi] {
			chunk = append(chunk, latencies[i])
		}
		slices.Sort(chunk)
		v, err := percentile(chunk, 0.99)
		if err != nil {
			return 0, 0, err
		}
		p99s[k] = float64(v)
	}
	return int64(median(p99s)), w, nil
}

// windowedRate is the run's ops per second made robust to a passing
// disturbance in the same way: the measured phase (d from start) is cut
// into maxWindows equal windows, each successful request's ops count in
// the window its reply arrived in, and the median window rate is
// returned. Replies after the phase (requests in flight at the
// deadline) are not counted.
func windowedRate(start time.Time, d time.Duration, starts []time.Time, latencies, ops []int64) float64 {
	win := d / maxWindows
	var done [maxWindows]int64
	for i, s := range starts {
		if k := int(s.Add(time.Duration(latencies[i])).Sub(start) / win); k >= 0 && k < maxWindows {
			done[k] += ops[i]
		}
	}
	rates := make([]float64, maxWindows)
	for k, n := range done {
		rates[k] = float64(n) / win.Seconds()
	}
	return median(rates)
}

// sortedCopy returns the samples in ascending order without touching
// the caller's slice.
func sortedCopy(samples []int64) []int64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	return s
}

// median returns the median of vs (the mean of the middle pair for an
// even count). vs must be non-empty.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
