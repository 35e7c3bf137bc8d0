package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

// exploreRequestSeeds are the decoder's edge cases: a full request,
// case-folded keys, null fields, slices and elements, duplicate keys
// (scalars, objects and slices refilled in place), integer range and
// grammar, booleans, escaped strings, and trailing data.
func exploreRequestSeeds(t testing.TB) [][]byte {
	full, err := json.Marshal(api.ExploreRequest{
		Worksheet:       worksheet.DocFromParams(paper.PDF1DParams()),
		ClocksMHz:       []float64{75, 100, 150},
		ThroughputProcs: []float64{10, 20, 40},
		Alphas:          []float64{0.16, 0.37},
		BlockSizes:      []int64{512, 2048},
		Devices:         []int{1, 4},
		Topology:        "independent",
		Bufferings:      []string{"single", "double"},
		Objective:       "min-cost",
		TopK:            10,
		MinSpeedup:      1.5,
		MaxTRCSeconds:   2,
		MaxUtilComm:     0.9,
		MaxDevices:      4,
		Frontier:        true,
		IndexLo:         3,
		IndexHi:         70,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{full, append(append([]byte(nil), full...), "trailing garbage"...)}
	for _, s := range []string{
		`{}`, `null`, `nullx`, `null {`, ` {"top_k":1} {`, `[]`, `""`, `1`, ``, `{`, `{"top_k":1,}`,
		`{"WORKSHEET":{"NAME":"x"},"Clocks_MHz":[100],"TOP_\u212a":3,"frontieR":true}`,
		`{"top_k":3,"top_k":null,"clocks_mhz":[1],"clocks_mhz":null,"worksheet":null}`,
		`{"clocks_mhz":[100,null,150],"bufferings":[null,"double"],"devices":[null]}`,
		`{"clocks_mhz":[1,2,3],"clocks_mhz":[4],"clocks_mhz":[5,null,null]}`,
		`{"devices":[1,2],"devices":[]}`, `{"alphas":[],"alphas":[null]}`,
		`{"worksheet":{"name":"a"},"worksheet":{"dataset":{"elements_in":5}}}`,
		`{"top_k":1.5}`, `{"top_k":1e2}`, `{"top_k":-0}`, `{"max_devices":9223372036854775808}`,
		`{"index_lo":-1}`, `{"index_lo":-0}`, `{"index_hi":18446744073709551615}`,
		`{"index_hi":18446744073709551616}`, `{"block_sizes":[9223372036854775807,1.0]}`,
		`{"min_speedup":1e309}`, `{"min_speedup":-0,"max_util_comm":5e-324}`,
		`{"frontier":true}`, `{"frontier":false}`, `{"frontier":tru}`, `{"frontier":1}`,
		`{"frontier":null}`, `{"frontier":"true"}`, `{"frontier":truex}`,
		`{"topology":"ind\u0065pendent","objective":"min\/trc"}`,
		`{"bufferings":["\u0064ouble","single\ud800"]}`, "{\"objective\":\"\xff\"}",
		`{"topology":5}`, `{"clocks_mhz":"100"}`, `{"clocks_mhz":[[100]]}`, `{"worksheet":[]}`,
		`{"clocks_mhz":{}}`, `{"unknown":1}`, `{"top_k":01}`, `{"clocks_mhz":[1,]}`,
		// Near-miss keys (see TestDecodeParityAdversarial).
		`{"index_lox":1}`, `{"index_lox:1}`, `{"index_l":1}`, `{"top_k_":1}`,
		"{\"index_l\x5cu006f\":1}", `{"top_k" :1}`, "{\"top_k\"\n:1}", `{"top_k" 1}`,
		`{"top_k`, `{"top_k"`, `{"clock_mhz":[1]}`, `{"name":"x"}`,
		`{"worksheet":{"computation":{"clock_mh":1}}}`, `{"worksheet":{"names:"x"}}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// referenceDecodeExplore is the decode ratd did before internal/wire
// served /v1/explore.
func referenceDecodeExplore(body []byte) (api.ExploreRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req api.ExploreRequest
	err := dec.Decode(&req)
	return req, err
}

// gridClass compiles the request's grid and reports whether it was
// accepted; a rejection must wrap ErrInvalidParameters once the
// server wraps the errors of req.Grid itself, as it does.
func gridClass(req *api.ExploreRequest) (bool, error) {
	g, err := req.Grid()
	if err != nil {
		return false, nil
	}
	if _, err := g.Compile(); err != nil {
		if !errors.Is(err, core.ErrInvalidParameters) {
			return false, err
		}
		return false, nil
	}
	return true, nil
}

// checkExploreDecodeParity requires DecodeExploreRequest to accept and
// reject body as the encoding/json reference does, to classify its
// rejections as syntax errors, and on accept to decode a deeply equal
// request whose grid compiles or fails alike.
func checkExploreDecodeParity(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := referenceDecodeExplore(body)
	got, gotErr := DecodeExploreRequest(body)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("accept/reject mismatch on %q:\n  encoding/json: %v\n  wire:          %v", body, wantErr, gotErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, worksheet.ErrSyntax) {
			t.Fatalf("rejection of %q does not wrap ErrSyntax: %v", body, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("request mismatch on %q:\n  encoding/json: %#v\n  wire:          %#v", body, want, got)
	}
	wantOK, err := gridClass(&want)
	if err != nil {
		t.Fatalf("grid of %q rejected without ErrInvalidParameters: %v", body, err)
	}
	if gotOK, _ := gridClass(&got); gotOK != wantOK {
		t.Fatalf("grid class mismatch on %q: encoding/json compiles %v, wire %v", body, wantOK, gotOK)
	}
}

func TestDecodeExploreRequestParity(t *testing.T) {
	for _, body := range exploreRequestSeeds(t) {
		checkExploreDecodeParity(t, body)
	}
}

// FuzzExploreRequestParity is the differential oracle for the explore
// request decoder against json.Decoder with DisallowUnknownFields:
// accept/reject, the error class, and the decoded request.
func FuzzExploreRequestParity(f *testing.F) {
	for _, s := range exploreRequestSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkExploreDecodeParity)
}

// referenceExploreJSON and referenceExploreJSONL render res as ratd
// did before internal/wire served /v1/explore: the body by
// json.Marshal, the JSONL lines by json.Encoder, stopping at the first
// line that fails.
func referenceExploreJSON(res *explore.Result, frontier bool) ([]byte, error) {
	return json.Marshal(api.ExploreResponseFromCore(*res, frontier))
}

func referenceExploreJSONL(res *explore.Result, frontier, spans bool) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range res.Top {
		c := api.CandidateFromCore(res.Top[i])
		if enc.Encode(api.ExploreLine{Kind: "top", Candidate: &c}) != nil {
			return buf.Bytes()
		}
	}
	if frontier {
		for i := range res.Frontier {
			c := api.CandidateFromCore(res.Frontier[i])
			if enc.Encode(api.ExploreLine{Kind: "frontier", Candidate: &c}) != nil {
				return buf.Bytes()
			}
		}
	}
	if spans {
		for _, sp := range res.Spans {
			line := api.ShardSpan{Shard: sp.Shard, Worker: sp.Worker, Lo: sp.Lo, Hi: sp.Hi, ElapsedSeconds: sp.Elapsed.Seconds()}
			if enc.Encode(api.ExploreLine{Kind: "span", Span: &line}) != nil {
				return buf.Bytes()
			}
		}
	}
	enc.Encode(api.ExploreLine{Kind: "summary", Summary: &api.ExploreSummary{
		Evaluated:        res.Evaluated,
		Feasible:         res.Feasible,
		Workers:          res.Workers,
		ElapsedSeconds:   res.Elapsed.Seconds(),
		CandidatesPerSec: res.CandidatesPerSec,
	}})
	return buf.Bytes()
}

// checkExploreEncodeParity requires the appenders to render res, with
// and without the frontier, byte for byte as the reference does and
// to refuse exactly what it refuses.
func checkExploreEncodeParity(t *testing.T, res *explore.Result) {
	t.Helper()
	for _, frontier := range []bool{false, true} {
		want, wantErr := referenceExploreJSON(res, frontier)
		prefix := []byte("prefix")
		got, gotErr := AppendExploreResponse(prefix, res, frontier)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("frontier=%v: marshalability mismatch: json %v, wire %v", frontier, wantErr, gotErr)
		}
		if gotErr != nil && string(got) != "prefix" {
			t.Fatalf("frontier=%v: a refused body left %q behind", frontier, got[len(prefix):])
		}
		if wantErr == nil && !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("frontier=%v: body mismatch:\n  json: %s\n  wire: %s", frontier, want, got[len(prefix):])
		}
		for _, spans := range []bool{false, true} {
			wantL := referenceExploreJSONL(res, frontier, spans)
			gotL := AppendExploreJSONL(prefix, res, frontier, spans)
			if !bytes.Equal(gotL[len(prefix):], wantL) {
				t.Fatalf("frontier=%v spans=%v: JSONL mismatch:\n  json: %s\n  wire: %s",
					frontier, spans, wantL, gotL[len(prefix):])
			}
		}
	}
	// The CLIs' lines: the top lines alone, with the refusal reported.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	var wantErr error
	for i := 0; i < len(res.Top) && wantErr == nil; i++ {
		c := api.CandidateFromCore(res.Top[i])
		wantErr = enc.Encode(api.ExploreLine{Kind: "top", Candidate: &c})
	}
	got, err := AppendCandidateLines(nil, "top", res.Top)
	if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("candidate lines: json %v, wire %v:\n  json: %s\n  wire: %s", wantErr, err, want.Bytes(), got)
	}
}

// specialFloats are the values whose rendering has a corner: signed
// zero, the 'e' switch on both sides, the smallest subnormal, and the
// values json.Marshal refuses.
var specialFloats = []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64,
	123456789.123, 1.0 / 3, math.Inf(1), math.Inf(-1), math.NaN()}

// randomResult draws a Result whose numbers come from specials one
// time in four and are otherwise random over many decades.
func randomResult(r *rand.Rand, specials []float64, nTop, nFront, nSpans int) explore.Result {
	num := func() float64 {
		if len(specials) > 0 && r.Intn(4) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return (r.Float64() - 0.25) * math.Pow(10, float64(r.Intn(50)-25))
	}
	cand := func() explore.Candidate {
		return explore.Candidate{
			Index: r.Uint64(), ClockHz: num(), ThroughputProc: num(), AlphaWrite: num(), AlphaRead: num(),
			ElementsIn: r.Int63() - r.Int63(), ElementsOut: r.Int63(), Iterations: r.Int63(),
			Devices: r.Intn(1 << 20), Buffering: core.Buffering(r.Intn(2)),
			TComm: num(), TComp: num(), TRC: num(), Speedup: num(), UtilComm: num(), UtilComp: num(),
		}
	}
	res := explore.Result{
		Evaluated: r.Uint64(), Feasible: r.Uint64(), Workers: r.Intn(64),
		Elapsed: time.Duration(r.Int63n(int64(time.Hour))), CandidatesPerSec: num(),
	}
	for i := 0; i < nTop; i++ {
		res.Top = append(res.Top, cand())
	}
	for i := 0; i < nFront; i++ {
		res.Frontier = append(res.Frontier, cand())
	}
	for i := 0; i < nSpans; i++ {
		res.Spans = append(res.Spans, explore.ShardSpan{Shard: r.Intn(1 << 10), Worker: r.Intn(64),
			Lo: r.Uint64(), Hi: r.Uint64(), Elapsed: time.Duration(r.Int63())})
	}
	return res
}

// TestExploreEncodeParity covers random Results, an empty top, a
// frontier asked for but empty and one not asked for, the special
// floats one by one in every candidate field, and a real run.
func TestExploreEncodeParity(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		res := randomResult(r, specialFloats[:10], r.Intn(4), r.Intn(4), r.Intn(3))
		checkExploreEncodeParity(t, &res)
	}
	for trial := 0; trial < 500; trial++ {
		res := randomResult(r, specialFloats, r.Intn(3), r.Intn(3), r.Intn(2))
		checkExploreEncodeParity(t, &res)
	}
	empty := explore.Result{Evaluated: 8, Workers: 1, Elapsed: time.Millisecond}
	checkExploreEncodeParity(t, &empty)
	empty.Frontier = []explore.Candidate{}
	checkExploreEncodeParity(t, &empty)
	for _, v := range specialFloats {
		for field := 0; field < 10; field++ {
			c := explore.Candidate{Index: 1, ClockHz: 1e8, ThroughputProc: 2, AlphaWrite: 0.5, AlphaRead: 0.5,
				TComm: 1, TComp: 1, TRC: 2, Speedup: 3, UtilComm: 0.5, UtilComp: 0.5}
			*[]*float64{&c.ClockHz, &c.ThroughputProc, &c.AlphaWrite, &c.AlphaRead, &c.TComm,
				&c.TComp, &c.TRC, &c.Speedup, &c.UtilComm, &c.UtilComp}[field] = v
			for _, res := range []explore.Result{
				{Top: []explore.Candidate{c}},
				{Frontier: []explore.Candidate{c}},
				{CandidatesPerSec: v},
			} {
				checkExploreEncodeParity(t, &res)
			}
		}
	}
	g := explore.Grid{
		Base:            paper.PDF1DParams(),
		Clocks:          []float64{core.MHz(75), core.MHz(100), core.MHz(150)},
		ThroughputProcs: []float64{10, 20, 40},
		Devices:         []int{1, 4},
	}
	res, err := explore.Run(g, explore.Options{Workers: 2, TopK: 5, Frontier: true, CollectSpans: true})
	if err != nil {
		t.Fatal(err)
	}
	checkExploreEncodeParity(t, &res)
}

// FuzzExploreEncodeParity draws Results from the fuzzer's seed and
// floats and requires the body and every JSONL line kind to match
// json.Marshal and json.Encoder byte for byte, refusals included.
func FuzzExploreEncodeParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(1), 0.0, math.Copysign(0, -1), 1e-7, 1e21)
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), 5e-324, math.MaxFloat64, 1e20, 1e-6)
	f.Add(int64(3), uint8(1), uint8(0), uint8(2), math.Inf(1), math.NaN(), 1.0/3, -2.5e-300)
	f.Fuzz(func(t *testing.T, seed int64, nTop, nFront, nSpans uint8, f1, f2, f3, f4 float64) {
		r := rand.New(rand.NewSource(seed))
		res := randomResult(r, []float64{f1, f2, f3, f4}, int(nTop%8), int(nFront%8), int(nSpans%4))
		checkExploreEncodeParity(t, &res)
	})
}
