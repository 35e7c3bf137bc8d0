package wire

import (
	"math"
	"strconv"
	"unicode/utf8"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/worksheet"
)

// The straight pass reads a worksheet written exactly as
// json.Marshal(worksheet.Doc) writes it: no whitespace, the members in
// struct order under their own names, every number in its shortest
// form and the name escaped as appendString would escape it. Such a
// worksheet's bytes are also its echo in a batch answer, so the
// encoder may copy them instead of rendering the document again.
//
// The pass gives up at the first byte that differs and the caller
// resets the element and runs the general decoder, which stays the
// reference: the straight pass only ever accepts a subset of what
// decodeWorksheet accepts, and decodes it to the same values.

// Span is the byte range [Lo, Hi) of one batch element in the body it
// was decoded from, set when the element is in json.Marshal's layout
// and its worksheet reads back to the same bytes, and zero otherwise.
type Span struct{ Lo, Hi int }

// canonical reads one worksheet at d.pos by the straight pass into p
// and reports whether it could. On false, d.pos and p are as they
// were.
//
//rat:hotpath
func (d *jsonDecoder) canonical(p *core.Parameters) bool {
	start := d.pos
	var doc worksheet.Doc
	var name []byte
	ok := true
	if d.lit(`{"name":"`) {
		name, ok = d.canonicalName()
		ok = ok && d.lit(`","dataset":{"elements_in":`)
	} else {
		ok = d.lit(`{"dataset":{"elements_in":`)
	}
	ds, cm, cp, sw := &doc.Dataset, &doc.Comm, &doc.Comp, &doc.Soft
	ok = ok && d.canonicalInt(&ds.ElementsIn) &&
		d.lit(`,"elements_out":`) && d.canonicalInt(&ds.ElementsOut) &&
		d.lit(`,"bytes_per_element":`) && d.canonicalFloat(&ds.BytesPerElement) &&
		d.lit(`},"communication":{"ideal_throughput_mbps":`) && d.canonicalFloat(&cm.IdealThroughputMBps) &&
		d.lit(`,"alpha_write":`) && d.canonicalFloat(&cm.AlphaWrite) &&
		d.lit(`,"alpha_read":`) && d.canonicalFloat(&cm.AlphaRead) &&
		d.lit(`},"computation":{"ops_per_element":`) && d.canonicalFloat(&cp.OpsPerElement) &&
		d.lit(`,"throughput_proc":`) && d.canonicalFloat(&cp.ThroughputProc) &&
		d.lit(`,"clock_mhz":`) && d.canonicalFloat(&cp.ClockMHz) &&
		d.lit(`},"software":{"tsoft_seconds":`) && d.canonicalFloat(&sw.TSoftSeconds) &&
		d.lit(`,"iterations":`) && d.canonicalInt(&sw.Iterations) &&
		d.lit(`}}`)
	if ok {
		// The answer renders DocFromParams of the decoded parameters,
		// which divides MB/s and MHz back out of the unit conversion;
		// the echo is right only where that gives back the same bits.
		q := doc.Params()
		back := worksheet.DocFromParams(q)
		ok = math.Float64bits(back.Comm.IdealThroughputMBps) == math.Float64bits(cm.IdealThroughputMBps) &&
			math.Float64bits(back.Comp.ClockMHz) == math.Float64bits(cp.ClockMHz)
		if ok {
			if name != nil {
				q.Name = d.str(name)
			}
			*p = q
			return true
		}
	}
	d.pos = start
	return false
}

// lit consumes the literal s when the input continues with it.
func (d *jsonDecoder) lit(s string) bool {
	if len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// canonicalName reads the content of a name string up to its closing
// quote, which it leaves for the next literal. It refuses an empty
// name (json.Marshal omits it), an escape, and any byte appendString
// would not copy as it is: controls, '<', '>', '&', invalid UTF-8 and
// U+2028 and U+2029.
func (d *jsonDecoder) canonicalName() ([]byte, bool) {
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c < utf8.RuneSelf {
			if !safeJSONByte(c) {
				break
			}
			d.pos++
			continue
		}
		r, size := utf8.DecodeRune(d.data[d.pos:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return nil, false
		}
		d.pos += size
	}
	if d.pos == start || d.pos == len(d.data) || d.data[d.pos] != '"' {
		return nil, false
	}
	return d.data[start:d.pos], true
}

// canonicalInt reads an integer written as strconv.AppendInt writes
// an int64: no '-0', no leading zero, and a value in range. A longer
// run of digits is left for the literal that follows to refuse.
func (d *jsonDecoder) canonicalInt(dst *int64) bool {
	i := d.pos
	neg := i < len(d.data) && d.data[i] == '-'
	if neg {
		i++
	}
	if i >= len(d.data) || !isDigit(d.data[i]) || d.data[i] == '0' && neg {
		return false
	}
	var u uint64
	for n := 0; i < len(d.data) && isDigit(d.data[i]); n++ {
		if n == 19 || n == 1 && u == 0 {
			return false
		}
		u = u*10 + uint64(d.data[i]-'0')
		i++
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if u > limit {
		return false
	}
	if neg {
		u = -u
	}
	*dst = int64(u)
	d.pos = i
	return true
}

// canonicalFloat reads a float written as appendFloat writes it. The
// token must be in 'f' form ('-'? int ('.' digits)?); an exponent is
// left for the literal that follows to refuse. The value is read as
// valueFloat64 reads it.
//
// A token of at most 15 significant digits with no trailing
// fractional zero, whose value is 0 or has a magnitude in [1e-6,
// 1e21), is its value's shortest form: a float64 tells apart any two
// decimals of 15 digits, so no decimal of as many digits or fewer
// other than the token reads back as the same float, and appendFloat
// writes values of that magnitude in 'f' form. Any other token is
// accepted only when appendFloat of its value gives it back.
func (d *jsonDecoder) canonicalFloat(dst *float64) bool {
	start := d.pos
	i := start
	n := number{exact: true}
	if i < len(d.data) && d.data[i] == '-' {
		n.neg = true
		i++
	}
	switch {
	case i >= len(d.data) || !isDigit(d.data[i]):
		return false
	case d.data[i] == '0':
		i++
	default:
		for ; i < len(d.data) && isDigit(d.data[i]); i++ {
			n.digit(d.data[i])
		}
	}
	if i < len(d.data) && d.data[i] == '.' {
		i++
		frac := i
		for ; i < len(d.data) && isDigit(d.data[i]); i++ {
			if n.digit(d.data[i]) {
				n.exp--
			}
		}
		if i == frac || d.data[i-1] == '0' {
			return false
		}
	}
	tok := d.data[start:i]
	v, exact := n.exactFloat64()
	if !exact || n.nd > 15 || v != 0 && math.Abs(v) < 1e-6 {
		if !exact {
			var err error
			if v, err = strconv.ParseFloat(bstr(tok), 64); err != nil {
				return false
			}
		}
		var buf [32]byte
		if string(appendFloat(buf[:0], v)) != string(tok) {
			return false
		}
	}
	*dst = v
	d.pos = i
	return true
}
