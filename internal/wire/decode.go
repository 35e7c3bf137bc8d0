// Package wire implements the hand-rolled wire codecs of ratd: a JSON
// request decoder whose accept/reject behaviour and decoded values are
// those of encoding/json, a JSON response encoder whose output is
// byte-identical to json.Marshal over the api wire structs, and a
// compact binary frame format (application/x-rat-bin) negotiated via
// Content-Type/Accept for bulk traffic.
//
// The JSON decoder is a cursor over the request body (jsonDecoder)
// with one implementation of each JSON construct:
//
//   - One object loop, decodeWorksheet, reads the worksheet and each of
//     its four groups (dataset, communication, computation, software);
//     worksheetMember dispatches statically on (object, member index).
//     Keys match exactly or else by Unicode case folding, repeated keys
//     merge, null leaves a field as it was, and an unknown key is an
//     error, as with json.Decoder.DisallowUnknownFields.
//   - One array cursor, open and next, walks batch bodies
//     (DecodeWorksheetDocs), the explore request's arrays (decodeArray)
//     and, with '{', every object's members.
//   - One member-name matcher, key, for the worksheet and explore
//     objects alike. A key spelled exactly as a member name is matched
//     by its bytes, without a string scan; any other key takes
//     scanString, unquoting when needed, and matchField's
//     exact-then-folded comparison.
//   - One string decoder, valueString, which interns through the
//     caller's interner when there is one. ratd's interner keeps at
//     most 1,024 names per pooled request scratch and empties the
//     table in place when it is full, so a vocabulary that keeps
//     changing neither grows the table nor makes it regrow.
//   - One number scan, scanNumber, which gathers up to 19 significant
//     digits while it checks the grammar. valueFloat64 takes Clinger's
//     exact fast path from them and valueInteger takes an integer of up
//     to 19 digits straight from them; strconv parses only the rest.
//
// DecodeExploreRequest (explore.go) has its own member switch over the
// same helpers. Differential tests and fuzz targets against
// encoding/json pin every decoder: FuzzWireDecodeParity,
// FuzzWorksheetDocsParity, FuzzExploreRequestParity and
// FuzzFloatTokenParity.
//
// The decoder and encoder work over caller-provided byte slices so the
// server can thread pooled buffers through a whole request: a
// steady-state predict request decodes and encodes without allocating
// (TestDecodeAllocs).
package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/worksheet"
)

// bstr views b as a string without copying. The view is only ever
// handed to strconv parsers, which do not retain it, so the backing
// bytes cannot be mutated while a reference is live.
func bstr(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// The objects of the worksheet shape. A group's number is its member
// index in the worksheet object.
const (
	objWorksheet = iota
	objDataset
	objComm
	objComp
	objSoft
)

// worksheetKeys[obj] is the member-name table of object obj, in struct
// order.
var worksheetKeys = [...][][]byte{
	objWorksheet: {[]byte("name"), []byte("dataset"), []byte("communication"), []byte("computation"), []byte("software")},
	objDataset:   {[]byte("elements_in"), []byte("elements_out"), []byte("bytes_per_element")},
	objComm:      {[]byte("ideal_throughput_mbps"), []byte("alpha_write"), []byte("alpha_read")},
	objComp:      {[]byte("ops_per_element"), []byte("throughput_proc"), []byte("clock_mhz")},
	objSoft:      {[]byte("tsoft_seconds"), []byte("iterations")},
}

// matchField resolves a decoded object key to its field index,
// preferring an exact match and falling back to bytes.EqualFold — the
// same case-insensitive fallback encoding/json uses — or -1 when the
// key names no field.
func matchField(key []byte, names [][]byte) int {
	for i, n := range names {
		if bytes.Equal(key, n) {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, n) {
			return i
		}
	}
	return -1
}

// jsonDecoder is a cursor over one request body. The zero position is
// the start of the (single) JSON value to decode. intern, when set,
// turns clean strings into Go strings.
type jsonDecoder struct {
	data   []byte
	pos    int
	intern func([]byte) string
}

// DecodeWorksheet parses one JSON worksheet and validates it: the
// drop-in replacement for worksheet.DecodeJSON on the predict path.
// It accepts and rejects byte-identically with DecodeJSON (unknown
// fields rejected at every nesting level, trailing data after the
// top-level value ignored) and yields identical core.Parameters;
// FuzzWireDecodeParity pins the equivalence. Syntax errors wrap
// worksheet.ErrSyntax, validation errors core.ErrInvalidParameters.
func DecodeWorksheet(data []byte) (core.Parameters, error) {
	return DecodeWorksheetIntern(data, nil)
}

// DecodeWorksheetIntern is DecodeWorksheet with a caller-supplied
// string interner for the worksheet name, letting a pooled caller
// decode repeat worksheets without allocating the name. A nil intern
// falls back to a plain string conversion.
//
//rat:hotpath
func DecodeWorksheetIntern(data []byte, intern func([]byte) string) (core.Parameters, error) {
	d := jsonDecoder{data: data, intern: intern}
	var doc worksheet.Doc
	if err := d.decodeWorksheet(objWorksheet, &doc); err != nil {
		return core.Parameters{}, fmt.Errorf("%w: %v", worksheet.ErrSyntax, err)
	}
	p := doc.Params()
	if err := p.Validate(); err != nil {
		return core.Parameters{}, err
	}
	return p, nil
}

// DecodeWorksheetDocs parses a JSON array of worksheets, appending one
// unvalidated core.Parameters per element — the exact shape
// /v1/predict/batch historically decoded via encoding/json (a
// []worksheet.Doc with unknown fields rejected, elements converted by
// Doc.Params, validation deferred to core.PredictBatch).
// FuzzWorksheetDocsParity pins the equivalence. A top-level null
// yields no elements and a null element a zero worksheet, as json
// decodes them into a slice. Errors wrap worksheet.ErrSyntax.
//
//rat:hotpath
func DecodeWorksheetDocs(data []byte, params []core.Parameters, intern func([]byte) string) ([]core.Parameters, error) {
	d := jsonDecoder{data: data, intern: intern}
	_, more, err := d.open('[')
	for more && err == nil {
		var doc worksheet.Doc
		if err = d.decodeWorksheet(objWorksheet, &doc); err != nil {
			break
		}
		params = append(params, doc.Params())
		more, err = d.next('[')
	}
	if err != nil {
		return params, fmt.Errorf("%w: %v", worksheet.ErrSyntax, err)
	}
	return params, nil
}

// decodeWorksheet parses an object-or-null value of object obj (the
// worksheet or one of its groups) into doc. null leaves doc as it was.
func (d *jsonDecoder) decodeWorksheet(obj int, doc *worksheet.Doc) error {
	_, more, err := d.open('{')
	for more && err == nil {
		if err = d.worksheetMember(obj, doc); err == nil {
			more, err = d.next('{')
		}
	}
	return err
}

// worksheetMember parses one member of object obj, key and value, into
// doc.
func (d *jsonDecoder) worksheetMember(obj int, doc *worksheet.Doc) error {
	idx, err := d.key(worksheetKeys[obj])
	if err != nil {
		return err
	}
	ds, cm, cp, sw := &doc.Dataset, &doc.Comm, &doc.Comp, &doc.Soft
	switch obj {
	case objWorksheet:
		if idx == 0 {
			return d.valueString(&doc.Name)
		}
		return d.decodeWorksheet(idx, doc)
	case objDataset:
		if idx < 2 {
			return d.valueInt64([...]*int64{&ds.ElementsIn, &ds.ElementsOut}[idx])
		}
		return d.valueFloat64(&ds.BytesPerElement)
	case objComm:
		return d.valueFloat64([...]*float64{&cm.IdealThroughputMBps, &cm.AlphaWrite, &cm.AlphaRead}[idx])
	case objComp:
		return d.valueFloat64([...]*float64{&cp.OpsPerElement, &cp.ThroughputProc, &cp.ClockMHz}[idx])
	}
	if idx == 0 {
		return d.valueFloat64(&sw.TSoftSeconds)
	}
	return d.valueInt64(&sw.Iterations)
}

// open begins an object ('{') or array ('[') value, or consumes a
// null in its place. It reports whether the value was null and
// whether a member or element follows the opening byte.
func (d *jsonDecoder) open(opening byte) (null, more bool, err error) {
	c, err := d.begin()
	if err != nil || c == 'n' {
		return c == 'n', false, err
	}
	if c != opening {
		return false, false, fmt.Errorf("invalid character %q looking for %q or null", c, opening)
	}
	d.pos++
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == opening+2 { // '}' or ']'
		d.pos++
		return false, false, nil
	}
	return false, true, nil
}

// next steps past the member or element just parsed in the container
// open began: it consumes a ',' and reports true, or the closing byte
// and reports false.
func (d *jsonDecoder) next(opening byte) (bool, error) {
	d.skipSpace()
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	d.pos++
	switch c {
	case ',':
		return true, nil
	case opening + 2: // '}' or ']'
		return false, nil
	}
	return false, fmt.Errorf("invalid character %q after an element of the %q value", c, opening)
}

// key parses a member's `"key":` and returns the key's index in keys.
// An unknown key is an error: the DisallowUnknownFields contract.
//
// A key spelled exactly as a member name is matched by its bytes: no
// name contains '"' or '\', so a name followed by '"' is the whole,
// clean key, and the first such name is the one matchField's exact
// pass would pick. Every other key (escaped, case-folded, unknown or
// cut short) takes the general string path.
func (d *jsonDecoder) key(keys [][]byte) (int, error) {
	d.skipSpace()
	c, err := d.peek()
	if err != nil {
		return -1, err
	}
	if c != '"' {
		return -1, fmt.Errorf("invalid character %q looking for an object key", c)
	}
	idx := -1
	rest := d.data[d.pos+1:]
	for i, name := range keys {
		if len(rest) > len(name) && rest[len(name)] == '"' && string(rest[:len(name)]) == string(name) {
			d.pos += len(name) + 2
			idx = i
			break
		}
	}
	if idx < 0 {
		key, clean, err := d.scanString()
		if err != nil {
			return -1, err
		}
		if !clean { // an escaped key can still name a field, e.g. "\u006eame"
			var buf [64]byte
			key = unquoteAppend(buf[:0], key)
		}
		if idx = matchField(key, keys); idx < 0 {
			return -1, fmt.Errorf("unknown field %q", string(key))
		}
	}
	d.skipSpace()
	if c, err = d.peek(); err != nil {
		return -1, err
	}
	if c != ':' {
		return -1, fmt.Errorf("invalid character %q after object key", c)
	}
	d.pos++
	return idx, nil
}

// begin skips whitespace and returns the first byte of the next value.
// A null is consumed whole and reported as c == 'n', which the scalar
// readers take, as encoding/json does, to leave the destination as it
// was.
func (d *jsonDecoder) begin() (c byte, err error) {
	d.skipSpace()
	if c, err = d.peek(); err == nil && c == 'n' {
		err = d.literal("null")
	}
	return c, err
}

func (d *jsonDecoder) valueInt64(dst *int64) error {
	return valueInteger(d, dst, 1<<63, math.MaxInt64)
}

func (d *jsonDecoder) valueInt(dst *int) error {
	return valueInteger(d, dst, math.MaxInt+1, math.MaxInt)
}

func (d *jsonDecoder) valueUint64(dst *uint64) error {
	return valueInteger(d, dst, 0, math.MaxUint64)
}

// valueInteger parses a number-or-null member value into an integer
// field with encoding/json's rules: no fraction or exponent, and the
// value in [-lo, hi], where lo 0 marks an unsigned field, which also
// refuses -0. A token of up to 19 digits is scanNumber's mantissa; a
// longer one goes to strconv.ParseUint, whose range error rejects it
// as json's does.
func valueInteger[T int | int64 | uint64](d *jsonDecoder, dst *T, lo, hi uint64) error {
	c, err := d.begin()
	if err != nil || c == 'n' {
		return err
	}
	n, err := d.scanNumber()
	if err != nil {
		return err
	}
	u, limit := n.mant, hi
	if n.isInt && !n.exact {
		u, err = strconv.ParseUint(strings.TrimPrefix(bstr(n.raw), "-"), 10, 64)
	}
	if n.neg {
		limit = lo
	}
	if !n.isInt || err != nil || u > limit || n.neg && lo == 0 {
		return fmt.Errorf("cannot unmarshal number %s into an integer field", n.raw)
	}
	if n.neg {
		u = -u
	}
	*dst = T(u)
	return nil
}

// valueFloat64 parses a number-or-null member value into a float64.
// The grammar is validated before any conversion (ParseFloat alone
// would admit hex floats and underscores JSON forbids). Tokens the
// exact fast path cannot take go to ParseFloat, whose range errors
// (1e309) reject the document exactly as encoding/json does.
func (d *jsonDecoder) valueFloat64(dst *float64) error {
	c, err := d.begin()
	if err != nil || c == 'n' {
		return err
	}
	n, err := d.scanNumber()
	if err != nil {
		return err
	}
	v, ok := n.exactFloat64()
	if !ok {
		if v, err = strconv.ParseFloat(bstr(n.raw), 64); err != nil {
			return fmt.Errorf("cannot unmarshal number %s into a float64 field: %w", n.raw, err)
		}
	}
	*dst = v
	return nil
}

// valueBool parses a true, false or null member value.
func (d *jsonDecoder) valueBool(dst *bool) error {
	c, err := d.begin()
	if err != nil || c == 'n' {
		return err
	}
	lit := "false"
	if c == 't' {
		lit = "true"
	} else if c != 'f' {
		return fmt.Errorf("invalid character %q looking for true or false", c)
	}
	if err := d.literal(lit); err != nil {
		return err
	}
	*dst = c == 't'
	return nil
}

// valueString parses a string-or-null member value. A clean string (no
// escapes, valid UTF-8) converts straight from the body, through the
// interner when there is one; any other is unquoted first, with
// encoding/json's replacement-character semantics.
func (d *jsonDecoder) valueString(dst *string) error {
	c, err := d.begin()
	if err != nil || c == 'n' {
		return err
	}
	if c != '"' {
		return fmt.Errorf("invalid character %q looking for a string", c)
	}
	raw, clean, err := d.scanString()
	if err != nil {
		return err
	}
	if !clean {
		raw = unquoteAppend(make([]byte, 0, len(raw)), raw)
	}
	if d.intern != nil {
		*dst = d.intern(raw)
	} else {
		*dst = string(raw)
	}
	return nil
}

// scanString validates one string literal per the JSON grammar
// (escape set b f n r t u \ / ", no raw control characters, \u with
// exactly four hex digits) and returns the raw content between the
// quotes. clean reports that the content needs no unquoting: no
// escapes and no invalid UTF-8.
func (d *jsonDecoder) scanString() (raw []byte, clean bool, err error) {
	d.pos++ // opening quote, verified by the caller
	start := d.pos
	clean = true
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], clean, nil
		case c == '\\':
			clean = false
			switch rest := d.data[d.pos:]; {
			case len(rest) > 1 && strings.IndexByte(`"\/bfnrt`, rest[1]) >= 0:
				d.pos += 2
			case getu4(rest) >= 0:
				d.pos += 6
			default:
				return nil, false, fmt.Errorf("invalid escape in string literal at offset %d", d.pos)
			}
		case c < 0x20:
			return nil, false, fmt.Errorf("invalid character %q in string literal", c)
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				clean = false // invalid byte: the unquote pass substitutes U+FFFD
			}
			d.pos += size
		}
	}
	return nil, false, errUnexpectedEnd
}

// unquoteAppend appends the decoded form of raw string content s, as
// scanString accepted it, to dst: escape sequences applied, invalid
// UTF-8 and unpaired surrogates replaced with U+FFFD, surrogate pairs
// combined — bit-for-bit encoding/json's unquote.
func unquoteAppend(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\' && s[r+1] == 'u':
			rr := getu4(s[r:])
			r += 6
			if utf16.IsSurrogate(rr) {
				// An unpaired surrogate decodes to U+FFFD and whatever
				// follows it is decoded on its own.
				if rr = utf16.DecodeRune(rr, getu4(s[r:])); rr != unicode.ReplacementChar {
					r += 6
				}
			}
			dst = utf8.AppendRune(dst, rr)
		case c == '\\':
			c = s[r+1]
			if i := strings.IndexByte("bfnrt", c); i >= 0 {
				c = "\b\f\n\r\t"[i]
			}
			dst = append(dst, c)
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// getu4 decodes \uXXXX at the start of s, or -1 if s does not begin
// with a complete hex escape.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	r, err := strconv.ParseUint(bstr(s[2:6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(r)
}

// number is one JSON number token as scanNumber read it. When exact
// is set, the token's value is mant×10^exp (negated when neg): it has
// at most 19 significant digits, all of them in mant.
type number struct {
	raw   []byte // the token's bytes
	isInt bool   // no fraction and no exponent
	neg   bool
	exact bool
	nd    int // significant digits in mant, leading zeros not counted
	mant  uint64
	exp   int
}

// digit folds the next digit into the mantissa. It reports false, and
// clears exact, once a 20th significant digit would not fit.
func (n *number) digit(c byte) bool {
	if n.nd == 19 {
		n.exact = false
		return false
	}
	n.mant = n.mant*10 + uint64(c-'0')
	if n.mant != 0 {
		n.nd++
	}
	return true
}

// float64pow10[i] is 10^i; every entry is exact in a float64.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// exactFloat64 returns the token's value when one correctly rounded
// operation gives it (Clinger's fast path): a mantissa up to 2^53 and
// a power of ten up to 1e22 are both exact in a float64, so their
// product or quotient is the correctly rounded value, the one
// strconv.ParseFloat returns. Negating last keeps -0 negative.
func (n *number) exactFloat64() (float64, bool) {
	if !n.exact || n.mant > 1<<53 || n.exp < -22 || n.exp > 22 {
		return 0, false
	}
	f := float64(n.mant)
	if n.exp >= 0 {
		f *= float64pow10[n.exp]
	} else {
		f /= float64pow10[-n.exp]
	}
	if n.neg {
		f = -f
	}
	return f, true
}

// scanNumber validates one number token against the JSON grammar
// ('-'? int frac? exp?) and, in the same pass, gathers its mantissa
// and decimal exponent for the exact fast paths.
func (d *jsonDecoder) scanNumber() (n number, err error) {
	start := d.pos
	n.isInt, n.exact = true, true
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		n.neg = true
		d.pos++
	}
	switch {
	case d.pos >= len(d.data):
		return n, errUnexpectedEnd
	case d.data[d.pos] == '0':
		d.pos++
	case '1' <= d.data[d.pos] && d.data[d.pos] <= '9':
		for d.pos < len(d.data) && isDigit(d.data[d.pos]) {
			n.digit(d.data[d.pos])
			d.pos++
		}
	default:
		return n, fmt.Errorf("invalid character %q in numeric field", d.data[d.pos])
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		n.isInt = false
		d.pos++
		if d.pos >= len(d.data) {
			return n, errUnexpectedEnd
		}
		if !isDigit(d.data[d.pos]) {
			return n, fmt.Errorf("invalid character %q after decimal point", d.data[d.pos])
		}
		for d.pos < len(d.data) && isDigit(d.data[d.pos]) {
			if n.digit(d.data[d.pos]) {
				n.exp--
			}
			d.pos++
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		n.isInt = false
		d.pos++
		neg := false
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			neg = d.data[d.pos] == '-'
			d.pos++
		}
		if d.pos >= len(d.data) {
			return n, errUnexpectedEnd
		}
		if !isDigit(d.data[d.pos]) {
			return n, fmt.Errorf("invalid character %q in exponent", d.data[d.pos])
		}
		e := 0
		for d.pos < len(d.data) && isDigit(d.data[d.pos]) {
			if e < 10000 { // far past the fast path; stop before overflow
				e = e*10 + int(d.data[d.pos]-'0')
			}
			d.pos++
		}
		if neg {
			e = -e
		}
		n.exp += e
	}
	n.raw = d.data[start:d.pos]
	return n, nil
}

// literal consumes the literal lit: null, true or false.
func (d *jsonDecoder) literal(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return fmt.Errorf("invalid literal at offset %d (expected %s)", d.pos, lit)
	}
	d.pos += len(lit)
	return nil
}

func (d *jsonDecoder) peek() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, errUnexpectedEnd
	}
	return d.data[d.pos], nil
}

func (d *jsonDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
