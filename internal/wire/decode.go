// Package wire implements the hand-rolled wire codecs of the ratd
// predict hot path: a JSON tokenizer specialized to the fixed
// worksheet shape whose accept/reject behavior is byte-identical to
// encoding/json (pinned by differential tests and
// FuzzWireDecodeParity), a JSON response encoder whose output is
// byte-identical to json.Marshal over the api wire structs, and a
// compact binary frame format (application/x-rat-bin) negotiated via
// Content-Type/Accept for bulk traffic.
//
// The decoder and encoder operate over caller-provided byte slices so
// the server can thread pooled buffers through the whole request: a
// steady-state predict request decodes, canonicalizes, and encodes
// without allocating.
package wire

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
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

// Field-name tables, one per object in the worksheet shape. Matching
// prefers exact bytes and falls back to Unicode case folding, the same
// two-step rule encoding/json applies to struct tags.
var (
	worksheetFields = [][]byte{
		[]byte("name"), []byte("dataset"), []byte("communication"),
		[]byte("computation"), []byte("software"),
	}
	datasetFields = [][]byte{
		[]byte("elements_in"), []byte("elements_out"), []byte("bytes_per_element"),
	}
	commFields = [][]byte{
		[]byte("ideal_throughput_mbps"), []byte("alpha_write"), []byte("alpha_read"),
	}
	compFields = [][]byte{
		[]byte("ops_per_element"), []byte("throughput_proc"), []byte("clock_mhz"),
	}
	softFields = [][]byte{
		[]byte("tsoft_seconds"), []byte("iterations"),
	}
)

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
// the start of the (single) JSON value to decode.
type jsonDecoder struct {
	data   []byte
	pos    int
	intern func([]byte) string
}

// DecodeWorksheet parses one JSON worksheet and validates it: the
// drop-in replacement for worksheet.DecodeJSON on the predict path.
// It accepts and rejects byte-identically with DecodeJSON (unknown
// fields rejected at every nesting level, trailing data after the
// top-level object ignored) and yields identical core.Parameters;
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
	if err := d.decodeTopLevel(&doc); err != nil {
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
// Doc.Params, validation deferred to core.PredictBatch). A top-level
// null yields no elements, mirroring JSON null into a slice. Errors
// wrap worksheet.ErrSyntax.
//
//rat:hotpath
func DecodeWorksheetDocs(data []byte, params []core.Parameters, intern func([]byte) string) ([]core.Parameters, error) {
	d := jsonDecoder{data: data, intern: intern}
	d.skipSpace()
	c, err := d.peek()
	if err != nil {
		return params, fmt.Errorf("%w: %v", worksheet.ErrSyntax, err)
	}
	switch c {
	case 'n':
		if err := d.literalNull(); err != nil {
			return params, fmt.Errorf("%w: %v", worksheet.ErrSyntax, err)
		}
		return params, nil
	case '[':
		d.pos++
	default:
		return params, fmt.Errorf("%w: batch body must be a JSON array of worksheets (invalid character %q looking for beginning of value)",
			worksheet.ErrSyntax, c)
	}
	d.skipSpace()
	c, err = d.peek()
	if err != nil {
		return params, fmt.Errorf("%w: %v", worksheet.ErrSyntax, err)
	}
	if c == ']' {
		d.pos++
		return params, nil
	}
	for {
		var doc worksheet.Doc
		switch c {
		case 'n':
			err = d.literalNull() // null element: a zero worksheet, as encoding/json decodes it
		case '{':
			d.pos++
			err = d.decodeWorksheetObject(&doc)
		default:
			err = fmt.Errorf("batch elements must be worksheet objects (invalid character %q)", c)
		}
		if err != nil {
			return params, fmt.Errorf("%w: %v", worksheet.ErrSyntax, err)
		}
		params = append(params, doc.Params())
		d.skipSpace()
		c, err = d.peek()
		if err != nil {
			return params, fmt.Errorf("%w: %v", worksheet.ErrSyntax, err)
		}
		switch c {
		case ',':
			d.pos++
			d.skipSpace()
			c, err = d.peek()
			if err != nil {
				return params, fmt.Errorf("%w: %v", worksheet.ErrSyntax, err)
			}
		case ']':
			d.pos++
			return params, nil
		default:
			return params, fmt.Errorf("%w: invalid character %q after array element", worksheet.ErrSyntax, c)
		}
	}
}

// decodeTopLevel parses the single top-level JSON value of a predict
// body: a worksheet object or null. Trailing bytes after the object
// are ignored and a top-level null must be followed by whitespace
// only — both exactly how json.Decoder.Decode reads one value from a
// stream.
func (d *jsonDecoder) decodeTopLevel(doc *worksheet.Doc) error {
	d.skipSpace()
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		d.pos++
		return d.decodeWorksheetObject(doc)
	case 'n':
		return d.literalNull()
	}
	return fmt.Errorf("worksheet body must be a JSON object (invalid character %q looking for beginning of value)", c)
}

// decodeWorksheetObject parses the worksheet object body; the opening
// brace is already consumed.
func (d *jsonDecoder) decodeWorksheetObject(doc *worksheet.Doc) error {
	first := true
	for {
		idx, more, err := d.nextField(worksheetFields, first)
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		first = false
		switch idx {
		case 0:
			err = d.valueName(&doc.Name)
		case 1:
			err = d.decodeDataset(doc)
		case 2:
			err = d.decodeComm(doc)
		case 3:
			err = d.decodeComp(doc)
		default:
			err = d.decodeSoft(doc)
		}
		if err != nil {
			return err
		}
	}
}

func (d *jsonDecoder) decodeDataset(doc *worksheet.Doc) error {
	open, err := d.objectOrNull("dataset")
	if err != nil || !open {
		return err
	}
	first := true
	for {
		idx, more, err := d.nextField(datasetFields, first)
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		first = false
		switch idx {
		case 0:
			err = d.valueInt64(&doc.Dataset.ElementsIn)
		case 1:
			err = d.valueInt64(&doc.Dataset.ElementsOut)
		default:
			err = d.valueFloat64(&doc.Dataset.BytesPerElement)
		}
		if err != nil {
			return err
		}
	}
}

func (d *jsonDecoder) decodeComm(doc *worksheet.Doc) error {
	open, err := d.objectOrNull("communication")
	if err != nil || !open {
		return err
	}
	first := true
	for {
		idx, more, err := d.nextField(commFields, first)
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		first = false
		switch idx {
		case 0:
			err = d.valueFloat64(&doc.Comm.IdealThroughputMBps)
		case 1:
			err = d.valueFloat64(&doc.Comm.AlphaWrite)
		default:
			err = d.valueFloat64(&doc.Comm.AlphaRead)
		}
		if err != nil {
			return err
		}
	}
}

func (d *jsonDecoder) decodeComp(doc *worksheet.Doc) error {
	open, err := d.objectOrNull("computation")
	if err != nil || !open {
		return err
	}
	first := true
	for {
		idx, more, err := d.nextField(compFields, first)
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		first = false
		switch idx {
		case 0:
			err = d.valueFloat64(&doc.Comp.OpsPerElement)
		case 1:
			err = d.valueFloat64(&doc.Comp.ThroughputProc)
		default:
			err = d.valueFloat64(&doc.Comp.ClockMHz)
		}
		if err != nil {
			return err
		}
	}
}

func (d *jsonDecoder) decodeSoft(doc *worksheet.Doc) error {
	open, err := d.objectOrNull("software")
	if err != nil || !open {
		return err
	}
	first := true
	for {
		idx, more, err := d.nextField(softFields, first)
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		first = false
		if idx == 0 {
			err = d.valueFloat64(&doc.Soft.TSoftSeconds)
		} else {
			err = d.valueInt64(&doc.Soft.Iterations)
		}
		if err != nil {
			return err
		}
	}
}

// objectOrNull consumes a sub-object opener. null is a no-op (the
// enclosing fields keep their current values, as encoding/json leaves
// the destination untouched); anything but '{' is an error.
func (d *jsonDecoder) objectOrNull(what string) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	if c == 'n' {
		return false, d.literalNull()
	}
	if c != '{' {
		return false, fmt.Errorf("%s must be a JSON object (invalid character %q)", what, c)
	}
	d.pos++
	return true, nil
}

// nextField advances to the next `"key":` of the current object (first
// marks the position just after '{'), consuming the separator and the
// whitespace before the member value. It returns the matched field
// index, or more=false once the closing brace is consumed. Unknown
// keys are an error — the DisallowUnknownFields contract.
func (d *jsonDecoder) nextField(names [][]byte, first bool) (idx int, more bool, err error) {
	d.skipSpace()
	c, err := d.peek()
	if err != nil {
		return 0, false, err
	}
	if c == '}' {
		d.pos++
		return 0, false, nil
	}
	if !first {
		if c != ',' {
			return 0, false, fmt.Errorf("invalid character %q after object member", c)
		}
		d.pos++
		d.skipSpace()
		c, err = d.peek()
		if err != nil {
			return 0, false, err
		}
	}
	if c != '"' {
		return 0, false, fmt.Errorf("invalid character %q looking for an object key", c)
	}
	key, err := d.readKey()
	if err != nil {
		return 0, false, err
	}
	idx = matchField(key, names)
	if idx < 0 {
		return 0, false, fmt.Errorf("unknown field %q", key)
	}
	d.skipSpace()
	c, err = d.peek()
	if err != nil {
		return 0, false, err
	}
	if c != ':' {
		return 0, false, fmt.Errorf("invalid character %q after object key", c)
	}
	d.pos++
	d.skipSpace()
	return idx, true, nil
}

// valueInt64 parses a number-or-null member value into an int64 with
// encoding/json's integer rules: strict JSON number grammar, no
// fraction or exponent, and int64 range enforced by ParseInt.
func (d *jsonDecoder) valueInt64(dst *int64) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literalNull()
	}
	n, err := d.scanNumber()
	if err != nil {
		return err
	}
	if !n.isInt {
		return fmt.Errorf("cannot unmarshal number %s into an integer field", n.raw)
	}
	v, err := strconv.ParseInt(bstr(n.raw), 10, 64)
	if err != nil {
		return fmt.Errorf("cannot unmarshal number %s into an integer field: %w", n.raw, err)
	}
	*dst = v
	return nil
}

// valueFloat64 parses a number-or-null member value into a float64.
// The grammar is validated before any conversion (ParseFloat alone
// would admit hex floats and underscores JSON forbids). Tokens the
// exact fast path cannot take go to ParseFloat, whose range errors
// (1e309) reject the document exactly as encoding/json does.
func (d *jsonDecoder) valueFloat64(dst *float64) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literalNull()
	}
	n, err := d.scanNumber()
	if err != nil {
		return err
	}
	if v, ok := n.exactFloat64(); ok {
		*dst = v
		return nil
	}
	v, err := strconv.ParseFloat(bstr(n.raw), 64)
	if err != nil {
		return fmt.Errorf("cannot unmarshal number %s into a float64 field: %w", n.raw, err)
	}
	*dst = v
	return nil
}

// valueName parses the string-or-null name member. Clean strings (no
// escapes, valid UTF-8) intern straight from the body; escaped or
// invalid-UTF-8 names take the cold unquote path with encoding/json's
// replacement-character semantics.
func (d *jsonDecoder) valueName(dst *string) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literalNull()
	}
	if c != '"' {
		return fmt.Errorf("the name field wants a string (invalid character %q)", c)
	}
	raw, clean, err := d.scanString()
	if err != nil {
		return err
	}
	if !clean {
		unq, err := unquoteAppend(make([]byte, 0, len(raw)), raw)
		if err != nil {
			return err
		}
		raw = unq
	}
	if d.intern != nil {
		*dst = d.intern(raw)
	} else {
		*dst = string(raw)
	}
	return nil
}

// readKey scans an object key, returning its decoded bytes. Clean keys
// are returned as a view of the body; escaped keys are unquoted (they
// can still fold-match a field name, e.g. "name").
func (d *jsonDecoder) readKey() ([]byte, error) {
	raw, clean, err := d.scanString()
	if err != nil {
		return nil, err
	}
	if clean {
		return raw, nil
	}
	var buf [64]byte
	return unquoteAppend(buf[:0], raw)
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
			raw = d.data[start:d.pos]
			d.pos++
			return raw, clean, nil
		case c == '\\':
			clean = false
			d.pos++
			if d.pos >= len(d.data) {
				return nil, false, errUnexpectedEnd
			}
			switch d.data[d.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				if d.pos+4 > len(d.data) {
					return nil, false, errUnexpectedEnd
				}
				for i := 0; i < 4; i++ {
					if !isHexDigit(d.data[d.pos]) {
						return nil, false, fmt.Errorf("invalid character %q in \\u hexadecimal character escape", d.data[d.pos])
					}
					d.pos++
				}
			default:
				return nil, false, fmt.Errorf("invalid character %q in string escape code", d.data[d.pos])
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

// unquoteAppend appends the decoded form of raw string content s (the
// bytes between the quotes, already syntax-checked by scanString) to
// dst: escape sequences applied, invalid UTF-8 and unpaired surrogates
// replaced with U+FFFD, surrogate pairs combined — bit-for-bit
// encoding/json's unquote.
func unquoteAppend(dst, s []byte) ([]byte, error) {
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			r++
			if r >= len(s) {
				return dst, errUnexpectedEnd
			}
			switch s[r] {
			case '"', '\\', '/':
				dst = append(dst, s[r])
				r++
			case 'b':
				dst = append(dst, '\b')
				r++
			case 'f':
				dst = append(dst, '\f')
				r++
			case 'n':
				dst = append(dst, '\n')
				r++
			case 'r':
				dst = append(dst, '\r')
				r++
			case 't':
				dst = append(dst, '\t')
				r++
			case 'u':
				r--
				rr := getu4(s[r:])
				if rr < 0 {
					return dst, fmt.Errorf("invalid \\u escape in string literal")
				}
				r += 6
				if utf16.IsSurrogate(rr) {
					rr1 := getu4(s[r:])
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						// A valid pair; consume both escapes.
						r += 6
						dst = utf8.AppendRune(dst, dec)
						break
					}
					// An unpaired surrogate becomes U+FFFD; whatever
					// follows is decoded on its own.
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
			default:
				return dst, fmt.Errorf("invalid escape code \\%c in string literal", s[r])
			}
		case c == '"', c < ' ':
			return dst, fmt.Errorf("invalid character %q in string literal", c)
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst, nil
}

// getu4 decodes \uXXXX at the start of s, or -1 if s does not begin
// with a complete hex escape.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
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
// and decimal exponent for the exact fast path.
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

// literalNull consumes the null literal.
func (d *jsonDecoder) literalNull() error {
	if len(d.data)-d.pos < 4 || string(d.data[d.pos:d.pos+4]) != "null" {
		return fmt.Errorf("invalid literal at offset %d (expected null)", d.pos)
	}
	d.pos += 4
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

func isHexDigit(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
