// Package obs is the request-observability substrate of the RAT
// prediction service: compact trace identifiers propagated end to end
// (client -> X-Rat-Trace header -> every serving stage), the names of
// the serving stages, and the bucket bounds of their latency
// histograms, which the server registers as ordinary telemetry
// registry histograms.
//
// The design keeps the instrumented fast path allocation-free: a Trace
// is a plain value the server embeds in storage it already allocates
// per request, and header parsing never touches the heap. See
// docs/OBSERVABILITY.md for the header contract and the exported
// metric families.
package obs

import (
	"encoding/hex"
	"math/rand/v2"
	"strconv"
	"time"
)

// TraceID identifies one logical request across retries and process
// boundaries. The wire form is 16 lowercase hex characters.
type TraceID [8]byte

// SpanID identifies one attempt (one HTTP exchange) within a trace.
// The wire form is 8 lowercase hex characters.
type SpanID [4]byte

// NewTraceID returns a random trace ID. The generator is math/rand/v2
// (per-goroutine state, no locks, no allocation): trace IDs need
// uniqueness for correlation, not unpredictability.
func NewTraceID() TraceID {
	var id TraceID
	v := rand.Uint64()
	for v == 0 { // the zero ID means "no trace"
		v = rand.Uint64()
	}
	for i := range id {
		id[i] = byte(v >> (8 * i))
	}
	return id
}

// NewSpanID returns a random span ID.
func NewSpanID() SpanID {
	var id SpanID
	v := rand.Uint32()
	for v == 0 {
		v = rand.Uint32()
	}
	for i := range id {
		id[i] = byte(v >> (8 * i))
	}
	return id
}

// IsZero reports whether the ID is the absent-trace sentinel.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String returns the 16-hex-character wire form.
func (t TraceID) String() string {
	var buf [16]byte
	hex.Encode(buf[:], t[:])
	return string(buf[:])
}

// String returns the 8-hex-character wire form.
func (s SpanID) String() string {
	var buf [8]byte
	hex.Encode(buf[:], s[:])
	return string(buf[:])
}

// TraceHeader is the HTTP header carrying the trace context:
// "<16 hex trace>-<8 hex span>". Servers echo the incoming value back
// on the response so callers can prove the trace round-tripped.
const TraceHeader = "X-Rat-Trace"

// StagesHeader is the opt-in HTTP request header: any non-empty value
// asks the server to answer with the same header carrying the
// per-stage latency breakdown (see Trace.StagesValue).
const StagesHeader = "X-Rat-Stages"

// ParseTraceHeader decodes the "<trace>-<span>" wire form. It is
// allocation-free and strict: exactly 16+1+8 lowercase-or-uppercase
// hex characters, non-zero trace ID.
func ParseTraceHeader(s string) (TraceID, SpanID, bool) {
	var id TraceID
	var span SpanID
	if len(s) != 25 || s[16] != '-' {
		return TraceID{}, SpanID{}, false
	}
	for i := 0; i < 8; i++ {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return TraceID{}, SpanID{}, false
		}
		id[i] = hi<<4 | lo
	}
	for i := 0; i < 4; i++ {
		hi, ok1 := hexVal(s[17+2*i])
		lo, ok2 := hexVal(s[17+2*i+1])
		if !ok1 || !ok2 {
			return TraceID{}, SpanID{}, false
		}
		span[i] = hi<<4 | lo
	}
	if id.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return id, span, true
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// FormatTraceHeader renders the wire form of the pair.
func FormatTraceHeader(id TraceID, span SpanID) string {
	var buf [25]byte
	hex.Encode(buf[:16], id[:])
	buf[16] = '-'
	hex.Encode(buf[17:], span[:])
	return string(buf[:])
}

// Trace is one request's observability record: identity plus the
// per-stage latencies accumulated as the request moves through the
// serving stack. It is a plain value so owners can embed it in
// per-request storage they already allocate; methods must be called
// from one goroutine at a time (the request's own), which is how the
// server uses it.
type Trace struct {
	ID   TraceID
	Span SpanID

	stages [NumStages]int64 // nanoseconds
}

// Valid reports whether the trace carries an identity.
func (t *Trace) Valid() bool { return !t.ID.IsZero() }

// Add accumulates d into the stage's latency.
func (t *Trace) Add(s Stage, d time.Duration) {
	if d < 0 || s < 0 || s >= NumStages {
		return
	}
	t.stages[s] += int64(d)
}

// StageNs returns the accumulated nanoseconds of one stage.
func (t *Trace) StageNs(s Stage) int64 {
	if s < 0 || s >= NumStages {
		return 0
	}
	return t.stages[s]
}

// Header returns the trace's X-Rat-Trace wire form.
func (t *Trace) Header() string { return FormatTraceHeader(t.ID, t.Span) }

// StagesValue renders the per-stage breakdown for the X-Rat-Stages
// response header: "admission=120;cache=35;batch_wait=0;kernel=90;
// encode=15", integer nanoseconds, every stage always present, in
// stage order.
func (t *Trace) StagesValue() string {
	buf := make([]byte, 0, 96)
	for s := Stage(0); s < NumStages; s++ {
		if s > 0 {
			buf = append(buf, ';')
		}
		buf = append(buf, s.String()...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, t.stages[s], 10)
	}
	return string(buf)
}
