package wire

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
)

// The JSON appenders below reproduce json.Marshal over the api wire
// structs byte for byte — same key order (struct order), same float
// formatting (shortest round-trip, 'e' above 1e21 and below 1e-6 with
// the exponent's leading zero trimmed), same string escaping
// (escapeHTML on). The server's bit-for-bit response tests and
// FuzzWireEncodeParity pin the equivalence.

var errNonFinite = fmt.Errorf("json: unsupported value: NaN or infinity")

// AppendPrediction appends the JSON encoding of p, byte-identical to
// json.Marshal(p).
//
//rat:hotpath
func AppendPrediction(dst []byte, p *api.Prediction) ([]byte, error) {
	if !finitePrediction(p) {
		return dst, errNonFinite
	}
	return appendPrediction(dst, p, nil), nil
}

// AppendPredictions appends the JSON array json.Marshal would produce
// for the api wire forms of prs — the /v1/predict/batch response body.
// A non-finite prediction abandons the array: dst comes back at its
// original length, with the error.
//
//rat:hotpath
func AppendPredictions(dst []byte, prs []core.Prediction) ([]byte, error) {
	return AppendPredictionsEcho(dst, prs, nil, nil)
}

// AppendPredictionsEcho is AppendPredictions for the answers to a
// batch that DecodeWorksheetDocsSpans decoded from body into spans:
// where an element's span is set, its bytes are already json.Marshal's
// rendering of that answer's worksheet, and they are copied instead of
// rendered again. prs[i] must be the prediction for element i;
// FuzzBatchEchoParity pins the result to json.Marshal.
//
//rat:hotpath
func AppendPredictionsEcho(dst []byte, prs []core.Prediction, body []byte, spans []Span) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, '[')
	for i := range prs {
		p := api.PredictionFromCore(prs[i])
		if !finitePrediction(&p) {
			return dst[:n0], errNonFinite
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		var doc []byte
		if i < len(spans) {
			doc = body[spans[i].Lo:spans[i].Hi]
		}
		dst = appendPrediction(dst, &p, doc)
	}
	return append(dst, ']'), nil
}

// AppendMultiPrediction appends the JSON encoding of mp,
// byte-identical to json.Marshal(mp).
//
//rat:hotpath
func AppendMultiPrediction(dst []byte, mp *api.MultiPrediction) ([]byte, error) {
	if !finitePrediction(&mp.Single) || !finite7(mp.TCommSeconds, mp.TCompSeconds,
		mp.TRCSingleSeconds, mp.TRCDoubleSeconds, mp.SpeedupSingle, mp.SpeedupDouble,
		mp.ScalingEfficiency) {
		return dst, errNonFinite
	}
	dst = append(dst, `{"devices":`...)
	dst = strconv.AppendInt(dst, int64(mp.Devices), 10)
	dst = append(dst, `,"topology":`...)
	dst = appendString(dst, mp.Topology)
	dst = append(dst, `,"single":`...)
	dst = appendPrediction(dst, &mp.Single, nil)
	dst = append(dst, `,"t_comm_seconds":`...)
	dst = appendFloat(dst, mp.TCommSeconds)
	dst = append(dst, `,"t_comp_seconds":`...)
	dst = appendFloat(dst, mp.TCompSeconds)
	dst = append(dst, `,"t_rc_single_seconds":`...)
	dst = appendFloat(dst, mp.TRCSingleSeconds)
	dst = append(dst, `,"t_rc_double_seconds":`...)
	dst = appendFloat(dst, mp.TRCDoubleSeconds)
	dst = append(dst, `,"speedup_single":`...)
	dst = appendFloat(dst, mp.SpeedupSingle)
	dst = append(dst, `,"speedup_double":`...)
	dst = appendFloat(dst, mp.SpeedupDouble)
	dst = append(dst, `,"scaling_efficiency":`...)
	dst = appendFloat(dst, mp.ScalingEfficiency)
	return append(dst, '}'), nil
}

// finitePrediction reports whether every float in p (worksheet
// included) is finite — json.Marshal refuses NaN and ±Inf, so the
// appenders must refuse the same inputs.
func finitePrediction(p *api.Prediction) bool {
	d := &p.Worksheet
	return finite7(d.Dataset.BytesPerElement, d.Comm.IdealThroughputMBps,
		d.Comm.AlphaWrite, d.Comm.AlphaRead, d.Comp.OpsPerElement,
		d.Comp.ThroughputProc, d.Comp.ClockMHz) &&
		finite7(d.Soft.TSoftSeconds, p.TWriteSeconds, p.TReadSeconds,
			p.TCommSeconds, p.TCompSeconds, p.TRCSingleSeconds, p.TRCDoubleSeconds) &&
		finite7(p.SpeedupSingle, p.SpeedupDouble, p.UtilCompSingle,
			p.UtilCommSingle, p.UtilCompDouble, p.UtilCommDouble, 0)
}

func finite7(a, b, c, d, e, f, g float64) bool {
	return !(math.IsNaN(a) || math.IsInf(a, 0) ||
		math.IsNaN(b) || math.IsInf(b, 0) ||
		math.IsNaN(c) || math.IsInf(c, 0) ||
		math.IsNaN(d) || math.IsInf(d, 0) ||
		math.IsNaN(e) || math.IsInf(e, 0) ||
		math.IsNaN(f) || math.IsInf(f, 0) ||
		math.IsNaN(g) || math.IsInf(g, 0))
}

// appendPrediction appends p with all floats pre-checked finite. A
// non-empty doc is the worksheet's JSON, copied as it is.
func appendPrediction(dst []byte, p *api.Prediction, doc []byte) []byte {
	dst = append(dst, `{"worksheet":`...)
	if len(doc) > 0 {
		dst = append(dst, doc...)
	} else {
		dst = appendDoc(dst, p)
	}
	dst = append(dst, `,"t_write_seconds":`...)
	dst = appendFloat(dst, p.TWriteSeconds)
	dst = append(dst, `,"t_read_seconds":`...)
	dst = appendFloat(dst, p.TReadSeconds)
	dst = append(dst, `,"t_comm_seconds":`...)
	dst = appendFloat(dst, p.TCommSeconds)
	dst = append(dst, `,"t_comp_seconds":`...)
	dst = appendFloat(dst, p.TCompSeconds)
	dst = append(dst, `,"t_rc_single_seconds":`...)
	dst = appendFloat(dst, p.TRCSingleSeconds)
	dst = append(dst, `,"t_rc_double_seconds":`...)
	dst = appendFloat(dst, p.TRCDoubleSeconds)
	dst = append(dst, `,"speedup_single":`...)
	dst = appendFloat(dst, p.SpeedupSingle)
	dst = append(dst, `,"speedup_double":`...)
	dst = appendFloat(dst, p.SpeedupDouble)
	dst = append(dst, `,"util_comp_single":`...)
	dst = appendFloat(dst, p.UtilCompSingle)
	dst = append(dst, `,"util_comm_single":`...)
	dst = appendFloat(dst, p.UtilCommSingle)
	dst = append(dst, `,"util_comp_double":`...)
	dst = appendFloat(dst, p.UtilCompDouble)
	dst = append(dst, `,"util_comm_double":`...)
	dst = appendFloat(dst, p.UtilCommDouble)
	return append(dst, '}')
}

// appendDoc appends the embedded worksheet document; name carries
// omitempty, everything else is unconditional.
func appendDoc(dst []byte, p *api.Prediction) []byte {
	d := &p.Worksheet
	dst = append(dst, '{')
	if d.Name != "" {
		dst = append(dst, `"name":`...)
		dst = appendString(dst, d.Name)
		dst = append(dst, ',')
	}
	dst = append(dst, `"dataset":{"elements_in":`...)
	dst = strconv.AppendInt(dst, d.Dataset.ElementsIn, 10)
	dst = append(dst, `,"elements_out":`...)
	dst = strconv.AppendInt(dst, d.Dataset.ElementsOut, 10)
	dst = append(dst, `,"bytes_per_element":`...)
	dst = appendFloat(dst, d.Dataset.BytesPerElement)
	dst = append(dst, `},"communication":{"ideal_throughput_mbps":`...)
	dst = appendFloat(dst, d.Comm.IdealThroughputMBps)
	dst = append(dst, `,"alpha_write":`...)
	dst = appendFloat(dst, d.Comm.AlphaWrite)
	dst = append(dst, `,"alpha_read":`...)
	dst = appendFloat(dst, d.Comm.AlphaRead)
	dst = append(dst, `},"computation":{"ops_per_element":`...)
	dst = appendFloat(dst, d.Comp.OpsPerElement)
	dst = append(dst, `,"throughput_proc":`...)
	dst = appendFloat(dst, d.Comp.ThroughputProc)
	dst = append(dst, `,"clock_mhz":`...)
	dst = appendFloat(dst, d.Comp.ClockMHz)
	dst = append(dst, `},"software":{"tsoft_seconds":`...)
	dst = appendFloat(dst, d.Soft.TSoftSeconds)
	dst = append(dst, `,"iterations":`...)
	dst = strconv.AppendInt(dst, d.Soft.Iterations, 10)
	return append(dst, `}}`...)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's
// escapeHTML=true policy: control characters, '"', '\\', '<', '>' and
// '&' escaped, invalid UTF-8 replaced with �, U+2028/U+2029
// escaped for JavaScript embedding.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if safeJSONByte(c) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				// Remaining control characters and the HTML trio get
				// \u00xx.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			// json writes the six-byte escape, not a raw U+FFFD.
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// safeJSONByte reports whether c passes through json string encoding
// unescaped under escapeHTML=true. DEL (0x7f) is unescaped; '<', '>'
// and '&' are not.
func safeJSONByte(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}
