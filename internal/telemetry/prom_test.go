package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestWritePromBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter(`rat_requests_total{code="200",endpoint="predict"}`).Add(17)
	r.Counter(`rat_requests_total{code="429",endpoint="predict"}`).Add(3)
	r.Gauge("rat_inflight").Set(2)
	h := r.Histogram(`rat_stage_seconds{stage="kernel"}`, []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(99) // overflow

	var sb strings.Builder
	if err := WriteProm(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE rat_requests_total counter",
		`rat_requests_total{code="200",endpoint="predict"} 17`,
		`rat_requests_total{code="429",endpoint="predict"} 3`,
		"# TYPE rat_inflight gauge",
		"rat_inflight 2",
		"# TYPE rat_stage_seconds histogram",
		`rat_stage_seconds_bucket{stage="kernel",le="0.001"} 1`,
		`rat_stage_seconds_bucket{stage="kernel",le="0.01"} 1`,
		`rat_stage_seconds_bucket{stage="kernel",le="0.1"} 2`,
		`rat_stage_seconds_bucket{stage="kernel",le="+Inf"} 3`,
		`rat_stage_seconds_count{stage="kernel"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE rat_requests_total"); n != 1 {
		t.Errorf("counter family TYPE emitted %d times, want 1", n)
	}
	if err := ValidateProm(out); err != nil {
		t.Errorf("own output fails conformance: %v", err)
	}
}

func TestWritePromStableOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter(`x_total{b="2"}`).Inc()
	r.Counter(`x_total{a="1"}`).Inc()
	r.Gauge("a_gauge").Set(1)
	var first, second strings.Builder
	if err := WriteProm(&first, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&second, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("WriteProm output is not deterministic")
	}
	out := first.String()
	if strings.Index(out, `x_total{a="1"}`) > strings.Index(out, `x_total{b="2"}`) {
		t.Error("samples within a family not sorted by label set")
	}
}

func TestValidatePromRejects(t *testing.T) {
	cases := map[string]string{
		"duplicate TYPE": "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"bad type":       "# TYPE x banana\nx 1\n",
		"duplicate sample": "# TYPE x counter\n" +
			`x{a="1"} 1` + "\n" + `x{a="1"} 2` + "\n",
		"interleaved families": "# TYPE x counter\n# TYPE y counter\nx 1\ny 1\nx 2\n",
		"bad value":            "# TYPE x counter\nx banana\n",
		"unterminated labels":  "# TYPE x counter\nx{a=\"1\" 1\n",
		"missing +Inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"non-monotone buckets": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n",
		"count disagrees with +Inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\n" + `h_bucket{le="+Inf"} 2` + "\n" +
			"h_sum 1\nh_count 3\n",
		"TYPE after samples": "x 1\n# TYPE x counter\nx_more 1\n",
	}
	for name, body := range cases {
		if err := ValidateProm(body); err == nil {
			t.Errorf("%s: validator accepted\n%s", name, body)
		}
	}
	good := "# HELP x a counter\n# TYPE x counter\nx 1\n" +
		"# TYPE h histogram\n" +
		`h_bucket{le="0.5"} 2` + "\n" + `h_bucket{le="+Inf"} 4` + "\n" +
		"h_sum 3.5\nh_count 4\n"
	if err := ValidateProm(good); err != nil {
		t.Errorf("validator rejected well-formed input: %v", err)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	empty := HistogramStats{}
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}

	single := HistogramStats{
		Count:   1,
		Buckets: []BucketCount{{1, 0}, {2, 1}, {4, 0}},
	}
	if q := single.Quantile(0.5); q < 1 || q > 2 {
		t.Errorf("single-sample p50 = %g, want within its bucket (1,2]", q)
	}
	if q := single.Quantile(1); q != 2 {
		t.Errorf("single-sample p100 = %g, want bucket upper bound 2", q)
	}

	// All-equal samples: every observation in one bucket; all quantiles
	// land inside that bucket.
	equal := HistogramStats{
		Count:   100,
		Buckets: []BucketCount{{1, 0}, {2, 100}, {4, 0}},
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		got := equal.Quantile(q)
		if got < 1 || got > 2 {
			t.Errorf("all-equal q%g = %g, want within (1,2]", q, got)
		}
	}
	if equal.Quantile(0.5) >= equal.Quantile(0.99) {
		// interpolation should be monotone in q
		t.Error("quantile not monotone in q")
	}

	// Overflow rank: estimate clamps to the last finite bound.
	over := HistogramStats{
		Count:    10,
		Buckets:  []BucketCount{{1, 5}},
		Overflow: 5,
	}
	if got := over.Quantile(0.99); got != 1 {
		t.Errorf("overflow quantile = %g, want last bound 1", got)
	}
	if got := over.Quantile(-1); got != over.Quantile(0) {
		t.Error("q below 0 not clamped")
	}
}

// TestHistogramConcurrentObserveEncode hammers a registry histogram
// with concurrent Observe while other goroutines snapshot and encode,
// under -race in CI.
func TestHistogramConcurrentObserveEncode(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`rat_stage_seconds{stage="kernel"}`, []float64{0.001, 0.01, 0.1, 1})
	const (
		writers = 8
		perW    = 2000
	)
	stop := make(chan struct{})
	var encoders sync.WaitGroup
	for e := 0; e < 2; e++ {
		encoders.Add(1)
		go func() {
			defer encoders.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var sb strings.Builder
					if err := WriteProm(&sb, r.Snapshot()); err != nil {
						t.Error(err)
						return
					}
					if err := ValidateProm(sb.String()); err != nil {
						t.Errorf("mid-flight snapshot invalid: %v", err)
						return
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(float64(i%2000) / 1000)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	encoders.Wait()
	if got := h.Stats().Count; got != writers*perW {
		t.Errorf("final count = %d, want %d", got, writers*perW)
	}
}
