package main

import (
	"testing"
	"time"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileSupportRule(t *testing.T) {
	// p99 needs ten samples beyond it: 1000 samples are the fewest.
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("999 samples reported a p99; the run is too short for one")
	}
	p99, err := percentile(seq(1000), 0.99)
	if err != nil || p99 != 990 {
		t.Errorf("p99 of 1..1000 = %d, %v; want 990 (nearest rank)", p99, err)
	}
	p50, err := percentile(seq(1000), 0.50)
	if err != nil || p50 != 500 {
		t.Errorf("p50 of 1..1000 = %d, %v; want 500", p50, err)
	}
	if _, err := percentile(seq(19), 0.50); err == nil {
		t.Error("19 samples reported a median with fewer than ten beyond it")
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileIgnoresInputOrder(t *testing.T) {
	s := []int64{5, 1, 4, 2, 3}
	got := sortedCopy(s)
	if s[0] != 5 {
		t.Error("sortedCopy reordered the caller's slice")
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("sortedCopy = %v", got)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 values = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 values = %g", m)
	}
}

func TestWindowedRate(t *testing.T) {
	start := time.Unix(0, 0)
	var starts []time.Time
	var lat, ops []int64
	add := func(at time.Duration, n int64) {
		starts = append(starts, start.Add(at-time.Millisecond))
		lat = append(lat, int64(time.Millisecond))
		ops = append(ops, n)
	}
	for w := 0; w < 10; w++ {
		n := int64(100)
		if w == 3 {
			n = 10 // one disturbed window
		}
		add(time.Duration(w)*time.Second+500*time.Millisecond, n)
	}
	add(10*time.Second+time.Millisecond, 1000) // replied after the phase
	if got := windowedRate(start, 10*time.Second, starts, lat, ops); got != 100 {
		t.Errorf("windowedRate = %g ops/s, want 100", got)
	}
}

func TestWindowedP99(t *testing.T) {
	base := time.Unix(0, 0)
	n := 5000
	starts := make([]time.Time, n)
	lat := make([]int64, n)
	for i := range lat {
		// Listed out of order: windows follow start times, not slice order.
		j := (i * 7) % n
		starts[i] = base.Add(time.Duration(j) * time.Millisecond)
		lat[i] = int64(j%1000 + 1)
		if j >= 4000 {
			lat[i] *= 100 // one disturbed window
		}
	}
	p99, windows, err := windowedP99(starts, lat)
	if err != nil || windows != 5 || p99 != 990 {
		t.Errorf("windowedP99 = %d over %d windows, %v; want 990 over 5", p99, windows, err)
	}
	if _, _, err := windowedP99(starts[:999], lat[:999]); err == nil {
		t.Error("999 samples reported a p99")
	}
}
