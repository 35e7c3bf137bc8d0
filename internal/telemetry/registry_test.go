package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs")
	c.Inc()
	c.Add(4)
	c.Add(-10) // clamped: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("runs") != c {
		t.Error("lookup did not return the same counter")
	}
	g := r.Gauge("util")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Errorf("gauge = %g, want 0.75", got)
	}
}

// TestHistogramMinMax: a histogram keeps the count, sum, min and max of
// what it observes, so one type records durations in seconds.
func TestHistogramMinMax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("phase_seconds", []float64{0.001, 0.01})
	if s := h.Stats(); s.Min != 0 || s.Max != 0 {
		t.Errorf("empty stats = %+v", s)
	}
	h.Observe(0.004)
	h.Observe(0.002)
	h.Observe(0.006)
	s := h.Stats()
	if s.Count != 3 || s.Sum != 0.004+0.002+0.006 || s.Min != 0.002 || s.Max != 0.006 {
		t.Errorf("stats = %+v", s)
	}
	h.Observe(-1) // a histogram is not clamped: a negative value is the new min
	if s := h.Stats(); s.Min != -1 || s.Max != 0.006 {
		t.Errorf("after a negative observation, min/max = %g/%g", s.Min, s.Max)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("size", []float64{10, 1, 10}) // unsorted, duplicate
	for _, v := range []float64{0.5, 1, 5, 10, 11} {
		h.Observe(v)
	}
	s := h.Stats()
	if s.Count != 5 || s.Sum != 27.5 {
		t.Errorf("count/sum = %d/%g", s.Count, s.Sum)
	}
	want := []BucketCount{{1, 2}, {10, 2}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
	if s.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", s.Overflow)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines;
// run with -race to verify the locking discipline.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, each = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h", []float64{1, 2, 3}).Observe(float64(i % 5))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["shared"] != workers*each {
		t.Errorf("counter = %d, want %d", s.Counters["shared"], workers*each)
	}
	if s.Histograms["h"].Count != workers*each {
		t.Errorf("histogram count = %d", s.Histograms["h"].Count)
	}
}

func TestSnapshotResetAndEncoders(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(7)
	r.Gauge("b.level").Set(1.5)
	r.Histogram("d.sizes", []float64{8, 64}).Observe(9)

	var text strings.Builder
	if err := WriteText(&text, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counter a.count", "7", "gauge   b.level", "1.5",
		"histo   d.sizes", "count=1", "le(64)=1"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text encoding missing %q:\n%s", want, text.String())
		}
	}

	r.Reset()
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("after Reset, snapshot = %+v", s)
	}
}

func TestDefaultRegistry(t *testing.T) {
	if Default() == nil || Default() != Default() {
		t.Fatal("Default must return one stable registry")
	}
}
