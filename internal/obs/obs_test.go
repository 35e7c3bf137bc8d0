package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceHeaderRoundTrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		id, span := NewTraceID(), NewSpanID()
		hdr := FormatTraceHeader(id, span)
		if len(hdr) != 25 || hdr[16] != '-' {
			t.Fatalf("header %q has the wrong shape", hdr)
		}
		gotID, gotSpan, ok := ParseTraceHeader(hdr)
		if !ok || gotID != id || gotSpan != span {
			t.Fatalf("ParseTraceHeader(%q) = %v %v %v, want %v %v true", hdr, gotID, gotSpan, ok, id, span)
		}
	}
}

func TestParseTraceHeaderRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"deadbeef",
		"0123456789abcdef01234567",    // no separator
		"0123456789abcdef-0123456",    // short span
		"0123456789abcdef-012345678",  // long span
		"0123456789abcdeg-01234567",   // non-hex trace
		"0123456789abcdef-0123456g",   // non-hex span
		"0000000000000000-01234567",   // zero trace ID
		"0123456789abcdef_01234567",   // wrong separator
		" 123456789abcdef-01234567",   // leading space
		"0123456789abcdef-01234567 ",  // trailing garbage (length)
		"0123456789abcdef-01234567-x", // too long
	} {
		if _, _, ok := ParseTraceHeader(s); ok {
			t.Errorf("ParseTraceHeader(%q) accepted, want reject", s)
		}
	}
	// Uppercase hex is accepted (header values survive proxies that
	// normalize case).
	id, span, ok := ParseTraceHeader("0123456789ABCDEF-01234567")
	if !ok || id.IsZero() || span == (SpanID{}) {
		t.Error("uppercase hex header rejected")
	}
}

func TestNewIDsNonZero(t *testing.T) {
	for i := 0; i < 1000; i++ {
		if NewTraceID().IsZero() {
			t.Fatal("NewTraceID returned the zero sentinel")
		}
		if NewSpanID() == (SpanID{}) {
			t.Fatal("NewSpanID returned zero")
		}
	}
}

func TestTraceStagesValue(t *testing.T) {
	var tr Trace
	tr.Add(StageAdmission, 120*time.Nanosecond)
	tr.Add(StageKernel, 90*time.Nanosecond)
	tr.Add(StageKernel, 10*time.Nanosecond) // accumulates
	tr.Add(StageEncode, -time.Second)       // negative ignored
	got := tr.StagesValue()
	want := "admission=120;cache=0;batch_wait=0;kernel=100;encode=0"
	if got != want {
		t.Errorf("StagesValue = %q, want %q", got, want)
	}
	if tr.StageNs(StageKernel) != 100 {
		t.Errorf("StageNs(kernel) = %d, want 100", tr.StageNs(StageKernel))
	}
	if tr.Valid() {
		t.Error("zero-ID trace reports Valid")
	}
}

func TestStageBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 0}, {256, 0},
		{257, 1}, {512, 1},
		{513, 2}, {1024, 2},
		{1025, 3},
		{256 << 23, numStageBuckets - 1},
		{256<<23 + 1, numStageBuckets},
		{1 << 62, numStageBuckets},
	}
	for _, c := range cases {
		if got := stageBucket(c.ns); got != c.want {
			t.Errorf("stageBucket(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	bounds := StageBounds()
	if len(bounds) != numStageBuckets {
		t.Fatalf("StageBounds length %d, want %d", len(bounds), numStageBuckets)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] != 2*bounds[i-1] {
			t.Errorf("bounds[%d] = %g, want double of %g", i, bounds[i], bounds[i-1])
		}
	}
	if bounds[0] != 256e-9 {
		t.Errorf("bounds[0] = %g, want 256ns in seconds", bounds[0])
	}
}

func TestStageSetHistogram(t *testing.T) {
	var ss StageSet
	ss.Observe(StageCache, 100*time.Nanosecond)  // bucket 0
	ss.Observe(StageCache, 300*time.Nanosecond)  // bucket 1
	ss.Observe(StageCache, 300*time.Nanosecond)  // bucket 1
	ss.Observe(StageCache, -time.Second)         // clamps to bucket 0
	ss.Observe(StageCache, 10*time.Second)       // overflow
	ss.Observe(StageKernel, 500*time.Nanosecond) // other stage untouched

	h := ss.Histogram(StageCache)
	if h.Count != 5 {
		t.Errorf("count = %d, want 5", h.Count)
	}
	if h.Buckets[0].Count != 2 || h.Buckets[1].Count != 2 {
		t.Errorf("buckets[0,1] = %d,%d, want 2,2", h.Buckets[0].Count, h.Buckets[1].Count)
	}
	if h.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", h.Overflow)
	}
	wantSum := (100 + 300 + 300 + 0 + 10e9) / 1e9
	if diff := h.Sum - wantSum; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("sum = %g, want %g", h.Sum, wantSum)
	}
	if got := ss.Count(StageKernel); got != 1 {
		t.Errorf("kernel count = %d, want 1", got)
	}
	if got := ss.Count(StageEncode); got != 0 {
		t.Errorf("encode count = %d, want 0", got)
	}
}

// TestStageSetConcurrent hammers Observe from many goroutines while a
// reader snapshots, under -race in CI. Totals must balance exactly
// once the writers stop.
func TestStageSetConcurrent(t *testing.T) {
	var ss StageSet
	const (
		workers = 8
		perW    = 2000
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h := ss.Histogram(StageKernel)
				var n int64
				for _, b := range h.Buckets {
					n += b.Count
				}
				if n+h.Overflow != h.Count {
					t.Error("snapshot count does not equal its bucket total")
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				ss.Observe(StageKernel, time.Duration(w*1000+i)*time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := ss.Count(StageKernel); got != workers*perW {
		t.Errorf("final count = %d, want %d", got, workers*perW)
	}
}

func TestStageStrings(t *testing.T) {
	want := []string{"admission", "cache", "batch_wait", "kernel", "encode"}
	for i, s := range Stages() {
		if s.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s.String(), want[i])
		}
	}
	if Stage(99).String() != "unknown" {
		t.Error("out-of-range stage should stringify as unknown")
	}
	joined := strings.Join(want, ";")
	if !strings.Contains(fmt.Sprint(joined), "batch_wait") {
		t.Error("sanity") // keeps fmt/strings imports honest
	}
}
