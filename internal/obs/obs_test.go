package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/chrec/rat/internal/telemetry"
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

// TestStageBucketBoundaries pins the stage histogram buckets: a
// registry histogram over StageBounds puts a duration of n
// nanoseconds in the first bucket whose bound is at least n, from
// 256 ns doubling, and past the 24th bound in the overflow count.
func TestStageBucketBoundaries(t *testing.T) {
	bounds := StageBounds()
	if len(bounds) != 24 {
		t.Fatalf("StageBounds length %d, want 24", len(bounds))
	}
	if bounds[0] != 256e-9 {
		t.Errorf("bounds[0] = %g, want 256ns in seconds", bounds[0])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] != 2*bounds[i-1] {
			t.Errorf("bounds[%d] = %g, want double of %g", i, bounds[i], bounds[i-1])
		}
	}
	cases := []struct {
		ns   int64
		want int // bucket index; len(bounds) is the overflow count
	}{
		{0, 0}, {1, 0}, {256, 0},
		{257, 1}, {512, 1},
		{513, 2}, {1024, 2},
		{1025, 3},
		{256 << 23, 23},
		{256<<23 + 1, 24},
		{1 << 62, 24},
	}
	for _, c := range cases {
		h := telemetry.NewRegistry().Histogram("h", bounds)
		h.Observe(time.Duration(c.ns).Seconds())
		st := h.Stats()
		got := len(bounds)
		for i, b := range st.Buckets {
			if b.Count == 1 {
				got = i
			}
		}
		if got != c.want || (got == len(bounds)) != (st.Overflow == 1) {
			t.Errorf("%d ns landed in bucket %d (overflow %d), want %d", c.ns, got, st.Overflow, c.want)
		}
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
