package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

// caseStudies returns the paper's three validation worksheets.
func caseStudies() []core.Parameters {
	return []core.Parameters{paper.PDF1DParams(), paper.PDF2DParams(), paper.MDParams()}
}

// marshalWorksheetJSON renders p's worksheet document via
// encoding/json, the reference the hand-rolled decoder must accept.
func marshalWorksheetJSON(t testing.TB, p core.Parameters) []byte {
	t.Helper()
	b, err := json.Marshal(worksheet.DocFromParams(p))
	if err != nil {
		t.Fatalf("marshal worksheet: %v", err)
	}
	return b
}

// assertDecodeParity decodes body with both decoders and requires
// identical accept/reject outcomes, identical error classes, and (on
// accept) identical parameters.
func assertDecodeParity(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := worksheet.DecodeJSON(bytes.NewReader(body))
	got, gotErr := DecodeWorksheet(body)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("accept/reject mismatch on %q:\n  encoding/json: %v\n  wire:          %v", body, wantErr, gotErr)
	}
	if wantErr != nil {
		if errors.Is(wantErr, worksheet.ErrSyntax) != errors.Is(gotErr, worksheet.ErrSyntax) {
			t.Fatalf("error class mismatch on %q:\n  encoding/json: %v\n  wire:          %v", body, wantErr, gotErr)
		}
		return
	}
	if got != want {
		t.Fatalf("parameters mismatch on %q:\n  encoding/json: %+v\n  wire:          %+v", body, want, got)
	}
}

func TestDecodeParityCaseStudies(t *testing.T) {
	for _, p := range caseStudies() {
		assertDecodeParity(t, marshalWorksheetJSON(t, p))
	}
}

func TestDecodeParityAdversarial(t *testing.T) {
	valid := string(marshalWorksheetJSON(t, paper.PDF1DParams()))
	bodies := []string{
		// Whitespace, key order, case folding.
		"  \t\r\n" + valid + "  \n",
		strings.ToUpper(valid[:1]) + valid[1:],
		`{"NAME":"x","dataset":{"elements_in":512,"elements_out":1,"bytes_per_element":4},"communication":{"IDEAL_THROUGHPUT_MBPS":1000,"alpha_write":0.37,"alpha_read":0.16},"computation":{"ops_per_element":768,"throughput_proc":20,"clock_mhz":150},"software":{"tsoft_seconds":0.578,"iterations":400}}`,
		// U+212A KELVIN SIGN folds to 'k' (cloc\u212A_mhz ~ clock_mhz);
		// U+017F LATIN SMALL LETTER LONG S folds to 's'.
		`{"dataset":{"element\u017F_in":512},"communication":{},"computation":{"cloc` + "\u212a" + `_mhz":150},"software":{}}`,
		// Escaped key that still names a field.
		`{"\u006eame":"escaped key","dataset":{"elements_in":512,"elements_out":1,"bytes_per_element":4},"communication":{"ideal_throughput_mbps":1000,"alpha_write":0.37,"alpha_read":0.16},"computation":{"ops_per_element":768,"throughput_proc":20,"clock_mhz":150},"software":{"tsoft_seconds":0.578,"iterations":400}}`,
		// Duplicate keys merge, later values win field-wise.
		`{"dataset":{"elements_in":1,"elements_out":1,"bytes_per_element":4},"dataset":{"elements_in":512},"communication":{"ideal_throughput_mbps":1000,"alpha_write":0.37,"alpha_read":0.16},"computation":{"ops_per_element":768,"throughput_proc":20,"clock_mhz":150},"software":{"tsoft_seconds":0.578,"iterations":400}}`,
		// Nulls at every level.
		`null`, `null `, `nullx`, `{"name":null,"dataset":null,"communication":null,"computation":null,"software":null}`,
		// Trailing data: ignored after an object, an error after null.
		valid + "x", valid + `{"again":true}`, `{} trailing is fine`,
		// Structure errors.
		``, `[`, `[]`, `{`, `{}`, `{,}`, `{"dataset":{,}}`, `true`, `42`, `"str"`,
		`{"dataset":[1,2]}`, `{"name":{}}`, `{"name":["x"]}`,
		`{"dataset":{"elements_in":512,}}`, `{"dataset" {"elements_in":512}}`,
		// Unknown fields at top and nested levels.
		`{"datasets":{}}`, `{"dataset":{"element_count":512}}`, `{"x":1}`,
		// Near-miss keys, which matching member names by their bytes must
		// leave to the general path: a name plus a suffix (in the second
		// and sixth the closing quote comes after the colon, or never), a
		// proper prefix, an escaped last byte, space or nothing before
		// the colon, a body that ends inside or right after a name, and
		// another object's member name.
		`{"names":"x"}`, `{"names:"x"}`, `{"dataset_":{}}`, `{"nam":"x"}`,
		`{"computation":{"clock_mh":150}}`, `{"computation":{"clock_mhz_:150}}`,
		"{\"nam\x5cu0065\":\"x\"}", "{\"computation\":{\"clock_mh\x5cu007a\":150}}",
		`{"name" :"x"}`, "{\"name\"\n\t:\"x\"}", `{"name" 1}`, `{"name""x"}`, `{"name"}`,
		`{"name`, `{"name"`, `{"name" `, `{"nam`, `{"name":`,
		`{"clock_mhz":150}`, `{"dataset":{"name":"x"}}`, `{"software":{"elements_in":1}}`,
		strings.ReplaceAll(valid, `":`, `" :`),
		// Numbers: limits, grammar edges, type mismatches.
		`{"dataset":{"elements_in":9223372036854775807}}`,
		`{"dataset":{"elements_in":9223372036854775808}}`,
		`{"dataset":{"elements_in":-9223372036854775808}}`,
		`{"dataset":{"elements_in":1.0}}`, `{"dataset":{"elements_in":1e2}}`,
		`{"dataset":{"bytes_per_element":1e309}}`,
		`{"dataset":{"bytes_per_element":1e-400}}`,
		`{"dataset":{"bytes_per_element":-0}}`,
		`{"dataset":{"bytes_per_element":0.5e+3}}`,
		`{"dataset":{"bytes_per_element":01}}`, `{"dataset":{"bytes_per_element":.5}}`,
		`{"dataset":{"bytes_per_element":5.}}`, `{"dataset":{"bytes_per_element":5e}}`,
		`{"dataset":{"bytes_per_element":+1}}`, `{"dataset":{"bytes_per_element":--1}}`,
		`{"dataset":{"bytes_per_element":NaN}}`, `{"dataset":{"bytes_per_element":Infinity}}`,
		// Strings: escapes, surrogates, controls, invalid UTF-8.
		`{"name":"a\"b\\c\/d\be\ff\ng\rh\ti"}`,
		`{"name":"\u0041\u00e9\u4e2d"}`,
		`{"name":"\ud83d\ude00"}`, `{"name":"\ud800"}`, `{"name":"\ud800x"}`,
		`{"name":"\ud800\ud800"}`, `{"name":"\ude00\ud83d"}`, `{"name":"\ud800\n"}`,
		`{"name":"\u12"}`, `{"name":"\q"}`, `{"name":"\'"}`,
		"{\"name\":\"tab\tliteral\"}", "{\"name\":\"\x01\"}",
		"{\"name\":\"\xff\xfe ok\"}", "{\"name\":\"\xc3\x28\"}",
		`{"name":"<script>&amp;"}`, "{\"name\":\"line\u2028sep\u2029par\"}",
		`{"name":"ends with backslash\`,
		`{"name":"unterminated`,
		// Validation failures that parse fine (error class must match:
		// not ErrSyntax on either side).
		`{"dataset":{"elements_in":-5,"elements_out":1,"bytes_per_element":4},"communication":{"ideal_throughput_mbps":1000,"alpha_write":0.37,"alpha_read":0.16},"computation":{"ops_per_element":768,"throughput_proc":20,"clock_mhz":150},"software":{"tsoft_seconds":0.578,"iterations":400}}`,
		`{}`,
	}
	for _, body := range bodies {
		assertDecodeParity(t, []byte(body))
	}
}

// worksheetDocsBodies are the batch decoder's edge cases: one and two
// worksheets, whitespace, empty and null bodies, null and empty
// elements, and malformed arrays and elements.
func worksheetDocsBodies(t testing.TB) []string {
	valid := string(marshalWorksheetJSON(t, paper.PDF1DParams()))
	second := string(marshalWorksheetJSON(t, paper.MDParams()))
	return []string{
		`[` + valid + `]`,
		`[` + valid + `,` + second + `]`,
		` [ ` + valid + ` , ` + second + ` ] `,
		`[]`, `null`, `[null]`, `[null,` + valid + `]`,
		`[{}]`, `[{},{}]`,
		// Errors.
		``, `[`, `[,]`, `[` + valid + `,]`, `[` + valid + ` ` + second + `]`,
		`[1]`, `["x"]`, `[[]]`, `{}`, `[{"bogus":1}]`, `nullx`,
		// Near-miss keys (see TestDecodeParityAdversarial).
		`[{"names":"x"}]`, `[{"dataset_":{}}]`, `[{"dataset_:{}}]`, `[{"nam":"x"}]`,
		`[{"computation":{"clock_mh":150}}]`, "[{\"nam\x5cu0065\":\"x\"}]",
		`[{"name" :"x"}]`, `[{"name" 1}]`, `[{"name`, `[{"name"`, `[{"clock_mhz":150}]`,
		`[` + valid + `,{"name"`, `[` + strings.ReplaceAll(valid, `":`, `" :`) + `]`,
	}
}

// checkDocsParity requires DecodeWorksheetDocs to accept and reject
// body as json.Decoder with DisallowUnknownFields does decoding into a
// []worksheet.Doc, to wrap ErrSyntax on every rejection, and on accept
// to yield each element's Params.
func checkDocsParity(t testing.TB, body []byte) {
	t.Helper()
	var want []worksheet.Doc
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	wantErr := dec.Decode(&want)
	got, gotErr := DecodeWorksheetDocs(body, nil, nil)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("accept/reject mismatch on %q:\n  encoding/json: %v\n  wire:          %v", body, wantErr, gotErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, worksheet.ErrSyntax) {
			t.Fatalf("batch decode error does not wrap ErrSyntax on %q: %v", body, gotErr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("element count mismatch on %q: encoding/json %d, wire %d", body, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i].Params() {
			t.Fatalf("element %d mismatch on %q:\n  encoding/json: %+v\n  wire:          %+v", i, body, want[i].Params(), got[i])
		}
	}
}

func TestDecodeWorksheetDocsParity(t *testing.T) {
	for _, body := range worksheetDocsBodies(t) {
		checkDocsParity(t, []byte(body))
	}
}

// TestDecodeAllocs: a steady-state decode allocates nothing, both a
// worksheet decoded with an interner and a batch decoded into a slice
// with spare capacity.
func TestDecodeAllocs(t *testing.T) {
	body := marshalWorksheetJSON(t, paper.PDF1DParams())
	intern := func([]byte) string { return "interned" }
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeWorksheetIntern(body, intern); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeWorksheetIntern allocates %.1f times per call, want 0", allocs)
	}

	batch := []byte("[" + string(body) + "," + string(marshalWorksheetJSON(t, paper.MDParams())) + "]")
	params := make([]core.Parameters, 0, 2)
	allocs = testing.AllocsPerRun(100, func() {
		var err error
		if params, err = DecodeWorksheetDocs(batch, params[:0], intern); err != nil || len(params) != 2 {
			t.Fatalf("decode: %d worksheets, %v", len(params), err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeWorksheetDocs allocates %.1f times per call, want 0", allocs)
	}
}

func TestDecodeWorksheetIntern(t *testing.T) {
	interned := "interned"
	calls := 0
	intern := func(b []byte) string {
		calls++
		if string(b) != "1-D PDF estimation" {
			t.Fatalf("intern saw %q", b)
		}
		return interned
	}
	body := marshalWorksheetJSON(t, paper.PDF1DParams())
	p, err := DecodeWorksheetIntern(body, intern)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if calls != 1 || p.Name != interned {
		t.Fatalf("intern not used: calls=%d name=%q", calls, p.Name)
	}
}

func TestAppendPredictionParity(t *testing.T) {
	for _, p := range caseStudies() {
		pr, err := core.Predict(p)
		if err != nil {
			t.Fatalf("predict: %v", err)
		}
		wire := api.PredictionFromCore(pr)
		want, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := AppendPrediction(nil, &wire)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("prediction encoding mismatch for %q:\n  json: %s\n  wire: %s", p.Name, want, got)
		}
	}
}

func TestAppendMultiPredictionParity(t *testing.T) {
	for _, p := range caseStudies() {
		for _, topo := range []core.Topology{core.SharedChannel, core.IndependentChannels} {
			mp, err := core.PredictMulti(p, core.MultiConfig{Devices: 4, Topology: topo})
			if err != nil {
				t.Fatalf("predict multi: %v", err)
			}
			wire := api.MultiPredictionFromCore(mp)
			want, err := json.Marshal(wire)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got, err := AppendMultiPrediction(nil, &wire)
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("multi encoding mismatch for %q/%v:\n  json: %s\n  wire: %s", p.Name, topo, want, got)
			}
		}
	}
}

func TestAppendPredictionsParity(t *testing.T) {
	ps := caseStudies()
	prs := make([]core.Prediction, len(ps))
	wireForms := make([]api.Prediction, len(ps))
	for i, p := range ps {
		pr, err := core.Predict(p)
		if err != nil {
			t.Fatalf("predict: %v", err)
		}
		prs[i] = pr
		wireForms[i] = api.PredictionFromCore(pr)
	}
	want, err := json.Marshal(wireForms)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := AppendPredictions(nil, prs)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch encoding mismatch:\n  json: %s\n  wire: %s", want, got)
	}

	for _, empty := range [][]core.Prediction{nil, {}} {
		got, err := AppendPredictions(nil, empty)
		if err != nil {
			t.Fatalf("append empty: %v", err)
		}
		if string(got) != "[]" {
			t.Fatalf("empty batch encodes as %q", got)
		}
	}
}

// TestAppendPredictionHostileStrings drives the string encoder through
// every escape class via worksheet names.
func TestAppendPredictionHostileStrings(t *testing.T) {
	names := []string{
		"", "plain", `quote " back \ slash`, "new\nline\ttab\rcr", "bell\bform\ffeed",
		"\x00\x01\x1f\x7f", "<script>&'</script>", "中文 héé",
		"\u2028line\u2029para", "bad\xff\xfeutf8", "\xc3\x28",
		"ends\xf0\x9f\x98\x80emoji", strings.Repeat("a&<>\u2028\xff", 37),
	}
	for _, name := range names {
		p := paper.PDF1DParams()
		p.Name = name
		wire := api.PredictionFromCore(core.Prediction{Params: p})
		want, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := AppendPrediction(nil, &wire)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("string encoding mismatch for name %q:\n  json: %s\n  wire: %s", name, want, got)
		}
	}
}

// TestAppendFloatParity sweeps the float encoder against json.Marshal,
// both signs of every value: mantissas 0, 1, 2^52-1 and three seeded
// random ones at every binary exponent, the smallest and largest
// subnormals, the neighbours of both format boundaries (1e-6 and
// 1e21), the integers around 2^53, and every power of ten from 1e-323
// to 1e308 with its neighbours.
func TestAppendFloatParity(t *testing.T) {
	var values []float64
	add := func(vs ...float64) {
		for _, v := range vs {
			values = append(values, v, -v)
		}
	}
	r := rand.New(rand.NewSource(20))
	const fracMask = 1<<52 - 1
	for exp := uint64(0); exp < 0x7ff; exp++ {
		for _, frac := range []uint64{0, 1, fracMask, r.Uint64() & fracMask, r.Uint64() & fracMask, r.Uint64() & fracMask} {
			add(math.Float64frombits(exp<<52 | frac))
		}
	}
	for i := uint64(1); i <= 4096; i++ {
		add(math.Float64frombits(i), math.Float64frombits(1<<52-i))
	}
	for _, edge := range []float64{1e-6, 1e21} {
		add(edge)
		below, above := edge, edge
		for i := 0; i < 4; i++ {
			below, above = math.Nextafter(below, 0), math.Nextafter(above, math.Inf(1))
			add(below, above)
		}
	}
	for i := int64(1<<53 - 2); i <= 1<<53+4; i++ {
		add(float64(i))
	}
	for e := -323; e <= 308; e++ {
		p, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		add(p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	add(1.0/3.0, 131.072e-6, 0.578, 2.560096153846154, 1234567890.12345678,
		9.999999e-7, 1.0000001e-6, 9.999999999999999e20, math.MaxFloat64, math.SmallestNonzeroFloat64)
	for _, v := range values {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("float encoding mismatch for %v (%#x): json %s, wire %s", v, math.Float64bits(v), want, got)
		}
	}
	if got := appendFloat(nil, math.Copysign(0, -1)); string(got) != "-0" {
		t.Fatalf("negative zero encodes as %s", got)
	}
}

// floatTokenCases are number tokens around the limits of valueFloat64's
// exact fast path, with whether it takes them: mantissas at 2^53 and
// one either side, powers of ten at 1e22 and 1e23, 19 and 20
// significant digits, negative zeros, and exponents far past the
// float64 range.
var floatTokenCases = []struct {
	tok  string
	fast bool
}{
	{"0", true}, {"-0", true}, {"-0.0e5", true}, {"0.0", true}, {"-0.000", true},
	{"1", true}, {"0.578", true}, {"131.072", true}, {"0.000123", true}, {"-2.5e-3", true},
	{"9007199254740991", true}, {"9007199254740992", true}, {"9007199254740993", false},
	{"9007199254740991e22", true}, {"9007199254740993e-22", false}, {"-9007199254740993", false},
	{"900719925474099.1", true}, {"900719925474099.3", false},
	{"1e22", true}, {"1e23", false}, {"1e-22", true}, {"1e-23", false}, {"-1E+22", true},
	{"1234567890123456789", false}, {"0.1234567890123456789", false},
	{"12345678901234567890", false}, {"9999999999999999999", false},
	{"1000000000000000000", false}, {"10000000000000000000", false},
	{"0.00000000000000000000000000001", false}, {"0.00000000000000000001e20", true},
	{"0e400", false}, {"-0e400", false}, {"1e-400", false}, {"1e400", false}, {"-1e309", false},
	{"1e0000000000000000000000000000000022", true}, {"1e1000000000000000000000", false},
	{"4.9e-324", false}, {"2.2250738585072014e-308", false}, {"1.7976931348623157e308", false},
}

// checkFloatToken requires valueFloat64 to read tok as
// strconv.ParseFloat does: the same bits, or an error on both sides.
func checkFloatToken(t *testing.T, tok []byte) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(string(tok), 64)
	var got float64
	d := jsonDecoder{data: tok}
	gotErr := d.valueFloat64(&got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: ParseFloat error %v, valueFloat64 error %v", tok, wantErr, gotErr)
	}
	if wantErr == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: ParseFloat %v (%#x), valueFloat64 %v (%#x)", tok, want, math.Float64bits(want), got, math.Float64bits(got))
	}
}

func TestFloatTokenParity(t *testing.T) {
	for _, tc := range floatTokenCases {
		checkFloatToken(t, []byte(tc.tok))
		d := jsonDecoder{data: []byte(tc.tok)}
		n, err := d.scanNumber()
		if err != nil || len(n.raw) != len(tc.tok) {
			t.Fatalf("%s: scanned %q, %v", tc.tok, n.raw, err)
		}
		if _, fast := n.exactFloat64(); fast != tc.fast {
			t.Errorf("%s: fast path %v, want %v", tc.tok, fast, tc.fast)
		}
	}
}

func TestAppendersRejectNonFinite(t *testing.T) {
	pr := api.PredictionFromCore(core.Prediction{Params: paper.PDF1DParams()})
	pr.SpeedupSingle = nan()
	if _, err := AppendPrediction(nil, &pr); err == nil {
		t.Fatal("AppendPrediction accepted NaN")
	}
	mp := api.MultiPrediction{Single: pr}
	if _, err := AppendMultiPrediction(nil, &mp); err == nil {
		t.Fatal("AppendMultiPrediction accepted NaN")
	}
	if _, err := AppendPredictions(nil, []core.Prediction{{SpeedupSingle: inf()}}); err == nil {
		t.Fatal("AppendPredictions accepted Inf")
	}
}

func nan() float64 { var z float64; return z / z }
func inf() float64 { var z float64; return 1 / z }
