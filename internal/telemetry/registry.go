package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta; negative deltas are clamped to zero so the counter
// stays monotone (use a Gauge for values that go down).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value (zero before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts float64 observations into fixed buckets and keeps
// their count, sum, min and max. Bounds are the inclusive upper edges
// of each bucket; observations above the last bound land in the
// overflow count. A duration is observed in seconds.
type Histogram struct {
	mu       sync.Mutex
	bounds   []float64
	counts   []int64
	over     int64
	sum      float64
	min, max float64
	n        int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.over++
}

// Stats returns the histogram's current contents.
func (h *Histogram) Stats() HistogramStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramStats{Count: h.n, Sum: h.sum, Min: h.min, Max: h.max, Overflow: h.over}
	s.Buckets = make([]BucketCount, len(h.bounds))
	for i, b := range h.bounds {
		s.Buckets[i] = BucketCount{UpperBound: b, Count: h.counts[i]}
	}
	return s
}

// BucketCount is one histogram bucket: observations <= UpperBound
// (and above the previous bound).
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramStats is a point-in-time summary of a Histogram. Min and
// Max are zero until the first observation.
type HistogramStats struct {
	Count    int64         `json:"count"`
	Sum      float64       `json:"sum"`
	Min      float64       `json:"min"`
	Max      float64       `json:"max"`
	Buckets  []BucketCount `json:"buckets"`
	Overflow int64         `json:"overflow"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket containing the target rank, the
// standard Prometheus histogram_quantile estimate. An empty histogram
// returns 0; out-of-range q is clamped; ranks landing in the overflow
// bucket return the last finite bound (the estimate cannot exceed it).
func (h HistogramStats) Quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	var cum float64
	lower := 0.0
	for _, b := range h.Buckets {
		next := cum + float64(b.Count)
		if next >= target && b.Count > 0 {
			frac := (target - cum) / float64(b.Count)
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(b.UpperBound-lower)
		}
		cum = next
		lower = b.UpperBound
	}
	return h.Buckets[len(h.Buckets)-1].UpperBound
}

// Registry holds named metrics. All methods are safe for concurrent
// use; metric handles returned by the lookup methods are themselves
// concurrency-safe and may be cached by callers.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// std is the process-wide default registry, used by code (the harness
// MD-dataset cache) with no natural place to thread a registry through.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the given bucket upper bounds (sorted ascending; duplicates
// removed). Bounds passed on later lookups of an existing name are
// ignored.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		uniq := bs[:0]
		for i, b := range bs {
			if i == 0 || b != bs[i-1] {
				uniq = append(uniq, b)
			}
		}
		h = &Histogram{bounds: uniq, counts: make([]int64, len(uniq))}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a consistent point-in-time copy of a registry's
// contents, suitable for encoding. Map keys are metric names.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramStats, len(r.histograms)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.Stats()
	}
	return s
}

// Reset drops every registered metric. Handles returned before the
// reset keep working but are no longer reachable from the registry.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.histograms = map[string]*Histogram{}
}
