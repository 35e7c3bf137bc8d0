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

	"github.com/chrec/rat"
	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/worksheet"
)

// shapedDocs draws n worksheets the way the batch-bulk workload does:
// the three case studies in turn under names of their own, every
// magnitude scaled by a seeded factor in [1/4, 4] and rounded, alphas
// in [0.05, 1] and whole clocks in [50, 250] MHz.
func shapedDocs(r *rand.Rand, n int) []worksheet.Doc {
	scale := func(v float64) float64 { return v * math.Exp2(4*r.Float64()-2) }
	round := func(v, unit float64) float64 { return math.Max(unit, math.Round(v/unit)*unit) }
	bases := caseStudies()
	docs := make([]worksheet.Doc, n)
	for i := range docs {
		d := worksheet.DocFromParams(bases[i%len(bases)])
		d.Name = "batch-bulk/" + strconv.Itoa(i)
		d.Dataset.ElementsIn = int64(round(scale(float64(d.Dataset.ElementsIn)), 1))
		d.Dataset.ElementsOut = int64(round(scale(float64(d.Dataset.ElementsOut)), 1))
		d.Dataset.BytesPerElement *= [...]float64{0.5, 1, 2}[r.Intn(3)]
		d.Comm.IdealThroughputMBps = round(scale(d.Comm.IdealThroughputMBps), 1)
		d.Comm.AlphaWrite = round(0.05+0.95*r.Float64(), 0.001)
		d.Comm.AlphaRead = round(0.05+0.95*r.Float64(), 0.001)
		d.Comp.OpsPerElement = round(scale(d.Comp.OpsPerElement), 1)
		d.Comp.ThroughputProc = round(scale(d.Comp.ThroughputProc), 0.1)
		d.Comp.ClockMHz = float64(50 + r.Intn(201))
		d.Soft.TSoftSeconds = round(scale(d.Soft.TSoftSeconds), 0.0001)
		d.Soft.Iterations = int64(round(scale(float64(d.Soft.Iterations)), 1))
		docs[i] = d
	}
	return docs
}

// marshalDocs is json.Marshal of docs.
func marshalDocs(t testing.TB, docs []worksheet.Doc) []byte {
	t.Helper()
	b, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// nearMisses are single worksheets one change away from
// json.Marshal's layout, each of which the straight pass must leave to
// the general decoder: whitespace, reordered keys (two of the same
// length among them) and case-folded keys,
// numbers that are not their own shortest form or that json.Marshal
// writes in 'e' form, '-0' in an integer, names json.Marshal escapes,
// an empty name, a null member, and MB/s and MHz values that
// DocFromParams does not give back bit for bit.
func nearMisses(t testing.TB) []string {
	c := string(marshalWorksheetJSON(t, caseStudies()[0]))
	rep := func(old, new string) string {
		s := strings.Replace(c, old, new, 1)
		if s == c {
			t.Fatalf("%q is not in %s", old, c)
		}
		return s
	}
	swap := func(a, b string) string {
		return strings.Replace(strings.Replace(rep(a, "\x00"), b, a, 1), "\x00", b, 1)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(c), "", "  "); err != nil {
		t.Fatal(err)
	}
	const name = `"1-D PDF estimation"`
	return []string{
		indented.String(),
		" " + c,
		rep(`,"alpha_write":`, `, "alpha_write":`),
		rep(`"iterations":400}`, `"iterations":400 }`),
		swap(`"alpha_write":0.37`, `"alpha_read":0.16`),
		swap(`"elements_in":512`, `"elements_out":1`),
		swap(`"ops_per_element":768`, `"throughput_proc":20`),
		`{"dataset":` + c[strings.Index(c, `{"elements_in"`):len(c)-1] + `,"name":` + name + `}`,
		rep(`"clock_mhz"`, `"Clock_MHz"`),
		rep(`"name"`, `"NAME"`),
		rep(`"tsoft_seconds":0.578`, `"tsoft_seconds":0.50`),
		rep(`"clock_mhz":150`, `"clock_mhz":150.0`),
		rep(`"ops_per_element":768`, `"ops_per_element":1e2`),
		rep(`"alpha_write":0.37`, `"alpha_write":0.10000000000000001`),
		rep(`"bytes_per_element":4`, `"bytes_per_element":0.0000001`),
		rep(`"ops_per_element":768`, `"ops_per_element":1000000000000000000000`),
		rep(`"elements_out":1`, `"elements_out":-0`),
		rep(`"elements_out":1`, `"elements_out":01`),
		rep(name, `"1-D <PDF> estimation"`),
		rep(name, `"1-D PDF & estimation"`),
		rep(name, "\"1-D PDF\u2028estimation\""),
		rep(name, `"1-D \u0050DF estimation"`),
		rep(name, "\"1-D PDF \xff\""),
		rep(name, `""`),
		rep(name, `null`),
		rep(`"ideal_throughput_mbps":1000`, `"ideal_throughput_mbps":645.4148614369246`),
		rep(`"clock_mhz":150`, `"clock_mhz":239.61947181271861`),
	}
}

// TestStraightPassTakesCanonical: every worksheet json.Marshal writes
// from a batch-bulk-shaped draw takes the straight pass and echoes its
// own bytes, and each near miss takes the general decoder, with the
// values encoding/json decodes.
func TestStraightPassTakesCanonical(t *testing.T) {
	body := marshalDocs(t, shapedDocs(rand.New(rand.NewSource(30)), 256))
	params, spans, err := DecodeWorksheetDocsSpans(body, nil, nil, nil)
	if err != nil || len(params) != 256 || len(spans) != 256 {
		t.Fatalf("decode: %d worksheets, %d spans, %v", len(params), len(spans), err)
	}
	for i, sp := range spans {
		if sp.Hi == 0 {
			t.Fatalf("element %d missed the straight pass", i)
		}
	}
	checkDocsParity(t, body)

	for _, ws := range nearMisses(t) {
		d := jsonDecoder{data: []byte(ws)}
		var p core.Parameters
		if d.canonical(&p) {
			t.Errorf("straight pass took %s", ws)
		}
		if d.pos != 0 || p != (core.Parameters{}) {
			t.Errorf("a miss left pos %d and %+v for %s", d.pos, p, ws)
		}
		assertDecodeParity(t, []byte(ws))
		checkDocsParity(t, []byte("["+ws+"]"))
	}
}

// TestBatchMissDecodesRestGenerally: after one element misses the
// straight pass, the rest of the body takes the general decoder, so a
// body in another layout wastes at most one pass.
func TestBatchMissDecodesRestGenerally(t *testing.T) {
	c := string(marshalWorksheetJSON(t, caseStudies()[0]))
	miss := strings.Replace(c, `"tsoft_seconds":0.578`, `"tsoft_seconds":0.50`, 1) // late in the element
	body := "[" + c + "," + miss + "," + c + "]"
	_, spans, err := DecodeWorksheetDocsSpans([]byte(body), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Span{{1, 1 + len(c)}, {}, {}}
	if len(spans) != len(want) || spans[0] != want[0] || spans[1] != want[1] || spans[2] != want[2] {
		t.Fatalf("spans %v, want %v", spans, want)
	}
}

// TestCanonicalFloat pins the straight pass's number check: it takes
// an 'f'-form token exactly when appendFloat of the token's value
// gives the token back, and then reads strconv.ParseFloat's value.
// The sweep covers both sides of 1e-6 and 1e21, the integers around
// 2^53, zeros of both signs, trailing zeros, tokens json.Marshal
// writes in 'e' form, and random tokens of 1 to 17 digits, so the
// 15-digit shortcut meets every boundary it relies on.
func TestCanonicalFloat(t *testing.T) {
	toks := []string{
		"0", "-0", "0.0", "-0.0", "00", "0.", ".5", "1.", "1.0", "1.50", "10", "100", "1e2", "1E2",
		"0.5", "-0.5", "150", "150.0", "0.578", "0.10000000000000001", "0.1", "0.30000000000000004",
		"0.000001", "0.0000001", "0.0000009999999999999999", "0.000001000000000000001",
		"1000000000000000000000", "999999999999999900000", "100000000000000000000",
		"123456789012345", "1234567890123456", "12345678901234567", "0.123456789012345",
		"0.1234567890123456", "1.23456789012345e5",
	}
	fform := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	for _, edge := range []float64{1e-6, 1e21} {
		below, above := edge, edge
		for i := 0; i < 8; i++ {
			toks = append(toks, fform(below), fform(above), "-"+fform(below))
			below, above = math.Nextafter(below, 0), math.Nextafter(above, math.Inf(1))
		}
	}
	for i := int64(1<<53 - 3); i <= 1<<53+5; i++ {
		toks = append(toks, strconv.FormatInt(i, 10), strconv.FormatInt(-i, 10))
	}
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 200000; i++ {
		digits := []byte{byte('1' + r.Intn(9))}
		for n := r.Intn(17); n > 0; n-- {
			digits = append(digits, byte('0'+r.Intn(10)))
		}
		if r.Intn(4) == 0 {
			digits[len(digits)-1] = '0'
		}
		tok := string(digits)
		switch form := r.Intn(3); {
		case form == 1 && len(tok) > 1:
			point := 1 + r.Intn(len(tok)-1)
			tok = tok[:point] + "." + tok[point:]
		case form == 2:
			tok = "0." + strings.Repeat("0", r.Intn(9)) + tok
		}
		if r.Intn(2) == 0 {
			tok = "-" + tok
		}
		toks = append(toks, tok)
	}
	taken := 0
	for _, tok := range toks {
		want, err := strconv.ParseFloat(tok, 64)
		shortest := err == nil && string(appendFloat(nil, want)) == tok
		d := jsonDecoder{data: []byte(tok)}
		var got float64
		ok := d.canonicalFloat(&got) && d.pos == len(tok)
		if ok != shortest {
			t.Fatalf("%s: straight pass takes it %v, appendFloat gives it back %v", tok, ok, shortest)
		}
		if ok {
			taken++
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: read %v (%#x), ParseFloat %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	if taken < len(toks)/4 {
		t.Fatalf("only %d of %d tokens are shortest forms: the sweep has lost its positives", taken, len(toks))
	}
}

// checkBatchEcho decodes body with spans, runs the batch kernel and
// renders the answer with AppendPredictionsEcho, and requires
// json.Marshal's bytes for the predictions that encoding/json's decode
// of body and rat.Predict give, or a refusal where they refuse.
func checkBatchEcho(t *testing.T, body []byte) {
	t.Helper()
	var docs []worksheet.Doc
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var want []byte
	wantErr := dec.Decode(&docs)
	if wantErr == nil && len(docs) == 0 {
		wantErr = errors.New("empty batch")
	}
	if wantErr == nil {
		preds := make([]api.Prediction, len(docs))
		for i := range docs {
			pr, err := rat.Predict(docs[i].Params())
			if err != nil {
				wantErr = err
				break
			}
			preds[i] = api.PredictionFromCore(pr)
		}
		if wantErr == nil {
			want, wantErr = json.Marshal(preds)
		}
	}

	params, spans, gotErr := DecodeWorksheetDocsSpans(body, nil, nil, nil)
	if gotErr == nil && len(params) == 0 {
		gotErr = errors.New("empty batch")
	}
	var got []byte
	if gotErr == nil {
		out := make([]core.Prediction, len(params))
		if gotErr = core.PredictBatch(params, out); gotErr == nil {
			got, gotErr = AppendPredictionsEcho(nil, out, body, spans)
		}
	}
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("accept/reject mismatch on %q:\n  encoding/json: %v\n  wire:          %v", body, wantErr, gotErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch answer mismatch on %q:\n  json: %s\n  wire: %s", body, want, got)
	}
}

// FuzzBatchEchoParity is the differential oracle for the echoed batch
// answer: DecodeWorksheetDocsSpans, core.PredictBatch and
// AppendPredictionsEcho against json.Marshal of the api.Predictions
// that encoding/json's decode of the same body and rat.Predict give.
// The seeds are batch-bulk-shaped bodies and bodies one change away
// from json.Marshal's layout (nearMisses), alone and between
// canonical elements.
func FuzzBatchEchoParity(f *testing.F) {
	r := rand.New(rand.NewSource(51))
	for _, n := range []int{1, 3, 16} {
		f.Add(marshalDocs(f, shapedDocs(r, n)))
	}
	c := string(marshalWorksheetJSON(f, caseStudies()[2]))
	for _, ws := range nearMisses(f) {
		f.Add([]byte("[" + ws + "]"))
		f.Add([]byte("[" + c + "," + ws + "," + c + "]"))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBatchEcho(t, body)
	})
}
