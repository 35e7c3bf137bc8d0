package wire

import (
	"fmt"
	"math"
	"strconv"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/worksheet"
)

// The /v1/explore codec: DecodeExploreRequest reads the request body
// as json.Decoder.Decode with DisallowUnknownFields reads it into an
// api.ExploreRequest (FuzzExploreRequestParity pins it), and
// AppendExploreResponse and AppendExploreJSONL render the JSON body
// and every JSONL line kind byte for byte as json.Marshal and
// json.Encoder render their api structs (FuzzExploreEncodeParity).

// exploreKeys is api.ExploreRequest's member-name table, in struct
// order.
var exploreKeys = [][]byte{
	[]byte("worksheet"), []byte("clocks_mhz"), []byte("throughput_procs"), []byte("alphas"),
	[]byte("block_sizes"), []byte("devices"), []byte("topology"), []byte("bufferings"),
	[]byte("objective"), []byte("top_k"), []byte("min_speedup"), []byte("max_trc_seconds"),
	[]byte("max_util_comm"), []byte("max_devices"), []byte("frontier"), []byte("index_lo"),
	[]byte("index_hi"),
}

// DecodeExploreRequest parses a /v1/explore body. It accepts and
// rejects exactly what json.Decoder.Decode with DisallowUnknownFields
// does and decodes the same api.ExploreRequest: keys match exactly or
// by case folding, the last of duplicate keys wins (a repeated object
// merges, a repeated array refills the slice in place), null leaves a
// field unchanged and sets a slice to nil, integer fields refuse a
// fraction, an exponent or an out-of-range value, and trailing data
// after the object is ignored. The grid is not validated here. Errors
// wrap worksheet.ErrSyntax.
func DecodeExploreRequest(data []byte) (api.ExploreRequest, error) {
	var req api.ExploreRequest
	d := jsonDecoder{data: data}
	_, more, err := d.open('{')
	for more && err == nil {
		if err = d.exploreMember(&req); err == nil {
			more, err = d.next('{')
		}
	}
	if err != nil {
		return api.ExploreRequest{}, fmt.Errorf("%w: %v", worksheet.ErrSyntax, err)
	}
	return req, nil
}

// exploreMember parses one member of the request object, key and
// value, into req.
func (d *jsonDecoder) exploreMember(req *api.ExploreRequest) error {
	idx, err := d.key(exploreKeys)
	if err != nil {
		return err
	}
	switch idx {
	case 0:
		return d.decodeWorksheet(objWorksheet, &req.Worksheet)
	case 1:
		return decodeArray(d, &req.ClocksMHz, d.valueFloat64)
	case 2:
		return decodeArray(d, &req.ThroughputProcs, d.valueFloat64)
	case 3:
		return decodeArray(d, &req.Alphas, d.valueFloat64)
	case 4:
		return decodeArray(d, &req.BlockSizes, d.valueInt64)
	case 5:
		return decodeArray(d, &req.Devices, d.valueInt)
	case 6:
		return d.valueString(&req.Topology)
	case 7:
		return decodeArray(d, &req.Bufferings, d.valueString)
	case 8:
		return d.valueString(&req.Objective)
	case 9:
		return d.valueInt(&req.TopK)
	case 10:
		return d.valueFloat64(&req.MinSpeedup)
	case 11:
		return d.valueFloat64(&req.MaxTRCSeconds)
	case 12:
		return d.valueFloat64(&req.MaxUtilComm)
	case 13:
		return d.valueInt(&req.MaxDevices)
	case 14:
		return d.valueBool(&req.Frontier)
	case 15:
		return d.valueUint64(&req.IndexLo)
	}
	return d.valueUint64(&req.IndexHi)
}

// decodeArray parses an array-or-null member value into *dst the way
// encoding/json fills a slice: null sets it to nil; otherwise element
// i is decoded into the slice's existing element i when there is one,
// appending only past its capacity (so a null element keeps whatever
// a repeated key left there), the slice is cut to the elements read,
// and [] leaves an empty, non-nil slice.
func decodeArray[T any](d *jsonDecoder, dst *[]T, value func(*T) error) error {
	null, more, err := d.open('[')
	if err != nil || null {
		*dst = nil
		return err
	}
	s, i := *dst, 0
	for more {
		switch {
		case cap(s) == 0:
			// Values do not depend on capacity: every element past
			// those written so far is zero either way.
			s = make([]T, 1, 16)
		case i >= cap(s):
			var zero T
			s = append(s, zero)
		case i >= len(s):
			s = s[:i+1]
		}
		if err := value(&s[i]); err != nil {
			return err
		}
		i++
		if more, err = d.next('['); err != nil {
			return err
		}
	}
	if i == 0 {
		s = []T{}
	}
	*dst = s[:i]
	return nil
}

// AppendExploreResponse appends the non-streaming /v1/explore body,
// byte-identical to json.Marshal(api.ExploreResponseFromCore(*res,
// frontier)): "top" is [] when no candidate was kept, and an empty
// frontier is omitted. Like json.Marshal it refuses a non-finite
// number, leaving dst as it was.
func AppendExploreResponse(dst []byte, res *explore.Result, frontier bool) ([]byte, error) {
	if !finite(res.CandidatesPerSec) || !finiteCandidates(res.Top) || frontier && !finiteCandidates(res.Frontier) {
		return dst, errNonFinite
	}
	dst = append(dst, `{"evaluated":`...)
	dst = strconv.AppendUint(dst, res.Evaluated, 10)
	dst = append(dst, `,"feasible":`...)
	dst = strconv.AppendUint(dst, res.Feasible, 10)
	dst = append(dst, `,"workers":`...)
	dst = strconv.AppendInt(dst, int64(res.Workers), 10)
	dst = append(dst, `,"elapsed_seconds":`...)
	dst = appendFloat(dst, res.Elapsed.Seconds())
	dst = append(dst, `,"candidates_per_sec":`...)
	dst = appendFloat(dst, res.CandidatesPerSec)
	dst = append(dst, `,"top":`...)
	dst = appendCandidates(dst, res.Top)
	if frontier && len(res.Frontier) > 0 {
		dst = append(dst, `,"frontier":`...)
		dst = appendCandidates(dst, res.Frontier)
	}
	return append(dst, '}'), nil
}

// AppendExploreJSONL appends the ?stream=jsonl rendering of res,
// byte-identical to json.Encoder.Encode of its api.ExploreLine values:
// a "top" line per top candidate, then a "frontier" line per frontier
// member when frontier is set, a "span" line per shard when spans is
// set (older consumers treat unknown line kinds as an error), and the
// "summary" line. A line that cannot be rendered (a non-finite number)
// ends the stream before it, where json.Encoder would fail.
func AppendExploreJSONL(dst []byte, res *explore.Result, frontier, spans bool) []byte {
	for i := range res.Top {
		if !finiteCandidate(&res.Top[i]) {
			return dst
		}
		dst = appendCandidateLine(dst, "top", &res.Top[i])
	}
	if frontier {
		for i := range res.Frontier {
			if !finiteCandidate(&res.Frontier[i]) {
				return dst
			}
			dst = appendCandidateLine(dst, "frontier", &res.Frontier[i])
		}
	}
	if spans {
		for i := range res.Spans {
			dst = appendSpanLine(dst, &res.Spans[i])
		}
	}
	if !finite(res.CandidatesPerSec) {
		return dst
	}
	return appendSummaryLine(dst, res)
}

// appendCandidateLine appends the JSONL line of one candidate, numbers
// pre-checked finite.
//
//rat:hotpath
func appendCandidateLine(dst []byte, kind string, cand *explore.Candidate) []byte {
	dst = append(dst, `{"kind":`...)
	dst = appendString(dst, kind)
	dst = append(dst, `,"candidate":`...)
	dst = appendCandidate(dst, cand)
	return append(dst, "}\n"...)
}

// appendSpanLine appends the JSONL line of one shard span. A
// duration's seconds are always finite.
func appendSpanLine(dst []byte, sp *explore.ShardSpan) []byte {
	dst = append(dst, `{"kind":"span","span":{"shard":`...)
	dst = strconv.AppendInt(dst, int64(sp.Shard), 10)
	dst = append(dst, `,"worker":`...)
	dst = strconv.AppendInt(dst, int64(sp.Worker), 10)
	dst = append(dst, `,"lo":`...)
	dst = strconv.AppendUint(dst, sp.Lo, 10)
	dst = append(dst, `,"hi":`...)
	dst = strconv.AppendUint(dst, sp.Hi, 10)
	dst = append(dst, `,"elapsed_seconds":`...)
	dst = appendFloat(dst, sp.Elapsed.Seconds())
	return append(dst, "}}\n"...)
}

// appendSummaryLine appends the closing summary line, the rate
// pre-checked finite.
func appendSummaryLine(dst []byte, res *explore.Result) []byte {
	dst = append(dst, `{"kind":"summary","summary":{"evaluated":`...)
	dst = strconv.AppendUint(dst, res.Evaluated, 10)
	dst = append(dst, `,"feasible":`...)
	dst = strconv.AppendUint(dst, res.Feasible, 10)
	dst = append(dst, `,"workers":`...)
	dst = strconv.AppendInt(dst, int64(res.Workers), 10)
	dst = append(dst, `,"elapsed_seconds":`...)
	dst = appendFloat(dst, res.Elapsed.Seconds())
	dst = append(dst, `,"candidates_per_sec":`...)
	dst = appendFloat(dst, res.CandidatesPerSec)
	return append(dst, "}}\n"...)
}

// finite reports whether v renders: neither NaN nor an infinity.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// finiteCandidates reports whether every number of every candidate in
// cands renders: json.Marshal refuses NaN and ±Inf.
func finiteCandidates(cands []explore.Candidate) bool {
	for i := range cands {
		if !finiteCandidate(&cands[i]) {
			return false
		}
	}
	return true
}

// finiteCandidate reports whether every number api.CandidateFromCore
// would carry for c is finite, clock_mhz included.
func finiteCandidate(c *explore.Candidate) bool {
	return finite7(c.ClockHz/1e6, c.ThroughputProc, c.AlphaWrite, c.AlphaRead, c.TComm, c.TComp, c.TRC) &&
		finite7(c.Speedup, c.UtilComm, c.UtilComp, 0, 0, 0, 0)
}

// appendCandidates appends cands as a JSON array of api.Candidate, all
// numbers pre-checked finite.
//
//rat:hotpath
func appendCandidates(dst []byte, cands []explore.Candidate) []byte {
	dst = append(dst, '[')
	for i := range cands {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendCandidate(dst, &cands[i])
	}
	return append(dst, ']')
}

// appendCandidate appends the api.Candidate rendering of c, numbers
// pre-checked finite. clock_mhz is ClockHz/1e6, the conversion
// api.CandidateFromCore makes.
//
//rat:hotpath
func appendCandidate(dst []byte, c *explore.Candidate) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendUint(dst, c.Index, 10)
	dst = append(dst, `,"clock_mhz":`...)
	dst = appendFloat(dst, c.ClockHz/1e6)
	dst = append(dst, `,"throughput_proc":`...)
	dst = appendFloat(dst, c.ThroughputProc)
	dst = append(dst, `,"alpha_write":`...)
	dst = appendFloat(dst, c.AlphaWrite)
	dst = append(dst, `,"alpha_read":`...)
	dst = appendFloat(dst, c.AlphaRead)
	dst = append(dst, `,"elements_in":`...)
	dst = strconv.AppendInt(dst, c.ElementsIn, 10)
	dst = append(dst, `,"elements_out":`...)
	dst = strconv.AppendInt(dst, c.ElementsOut, 10)
	dst = append(dst, `,"iterations":`...)
	dst = strconv.AppendInt(dst, c.Iterations, 10)
	dst = append(dst, `,"devices":`...)
	dst = strconv.AppendInt(dst, int64(c.Devices), 10)
	dst = append(dst, `,"buffering":`...)
	dst = appendString(dst, c.Buffering.String())
	dst = append(dst, `,"t_comm_seconds":`...)
	dst = appendFloat(dst, c.TComm)
	dst = append(dst, `,"t_comp_seconds":`...)
	dst = appendFloat(dst, c.TComp)
	dst = append(dst, `,"t_rc_seconds":`...)
	dst = appendFloat(dst, c.TRC)
	dst = append(dst, `,"speedup":`...)
	dst = appendFloat(dst, c.Speedup)
	dst = append(dst, `,"util_comm":`...)
	dst = appendFloat(dst, c.UtilComm)
	dst = append(dst, `,"util_comp":`...)
	dst = appendFloat(dst, c.UtilComp)
	return append(dst, '}')
}
