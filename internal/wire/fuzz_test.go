package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/worksheet"
)

// FuzzWireDecodeParity is the differential oracle for the hand-rolled
// request decoder: for every input, DecodeWorksheet must accept or
// reject byte-identically with worksheet.DecodeJSON (the encoding/json
// reference), classify errors identically (syntax vs validation), and
// on accept produce identical core.Parameters. The CI fuzz-smoke job
// runs this continuously.
func FuzzWireDecodeParity(f *testing.F) {
	for _, p := range []core.Parameters{paper.PDF1DParams(), paper.PDF2DParams(), paper.MDParams()} {
		b, err := json.Marshal(worksheet.DocFromParams(p))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`nullx`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"NAME":"\ud800\u212a","DataSet":{"elements_in":1}}`))
	f.Add([]byte(`{"dataset":{"elements_in":9223372036854775808}}`))
	f.Add([]byte(`{"dataset":{"bytes_per_element":1e309}}`))
	f.Add([]byte(`{"dataset":null,"dataset":{"elements_in":1.5}}`))
	f.Add([]byte("{\"name\":\"\xff\x01\\u12ZZ\"}"))
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := worksheet.DecodeJSON(bytes.NewReader(body))
		got, gotErr := DecodeWorksheet(body)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("accept/reject mismatch on %q:\n  encoding/json: %v\n  wire:          %v", body, wantErr, gotErr)
		}
		if wantErr != nil {
			if errors.Is(wantErr, worksheet.ErrSyntax) != errors.Is(gotErr, worksheet.ErrSyntax) {
				t.Fatalf("error class mismatch on %q:\n  encoding/json: %v\n  wire:          %v", body, wantErr, gotErr)
			}
			if errors.Is(wantErr, core.ErrInvalidParameters) != errors.Is(gotErr, core.ErrInvalidParameters) {
				t.Fatalf("validation class mismatch on %q:\n  encoding/json: %v\n  wire:          %v", body, wantErr, gotErr)
			}
			return
		}
		// Validated parameters never hold NaN, so != is exact.
		if got != want {
			t.Fatalf("parameters mismatch on %q:\n  encoding/json: %+v\n  wire:          %+v", body, want, got)
		}
	})
}

// FuzzWorksheetDocsParity is the differential oracle for the batch
// decoder: DecodeWorksheetDocs against json.Decoder with
// DisallowUnknownFields decoding into a []worksheet.Doc, comparing
// accept/reject, the ErrSyntax class and every element's Params.
func FuzzWorksheetDocsParity(f *testing.F) {
	for _, body := range worksheetDocsBodies(f) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDocsParity(t, body)
	})
}

// FuzzWireEncodeParity drives the response encoder with arbitrary
// field values and requires byte equality with json.Marshal, including
// agreement on refusing non-finite floats.
func FuzzWireEncodeParity(f *testing.F) {
	f.Add("1-D PDF estimation", int64(512), int64(1), 4.0, 1000.0, 0.37, 2.560096153846154)
	f.Add("<h&>\u2028\ufffd", int64(-1), int64(math.MaxInt64), 1e-7, 1e21, math.Pi, math.Copysign(0, -1))
	f.Add("\xffbad", int64(0), int64(0), math.Inf(1), math.NaN(), 5e-324, 1e20)
	f.Fuzz(func(t *testing.T, name string, i1, i2 int64, f1, f2, f3, f4 float64) {
		p := api.Prediction{
			TWriteSeconds: f1, TReadSeconds: f2, TCommSeconds: f3, TCompSeconds: f4,
			TRCSingleSeconds: f1 * f2, TRCDoubleSeconds: f3 - f4,
			SpeedupSingle: f4, SpeedupDouble: f1, UtilCompSingle: f2,
			UtilCommSingle: f3, UtilCompDouble: f4, UtilCommDouble: f1,
		}
		p.Worksheet.Name = name
		p.Worksheet.Dataset.ElementsIn = i1
		p.Worksheet.Dataset.ElementsOut = i2
		p.Worksheet.Dataset.BytesPerElement = f1
		p.Worksheet.Comm.IdealThroughputMBps = f2
		p.Worksheet.Comm.AlphaWrite = f3
		p.Worksheet.Comm.AlphaRead = f4
		p.Worksheet.Comp.OpsPerElement = f1
		p.Worksheet.Comp.ThroughputProc = f2
		p.Worksheet.Comp.ClockMHz = f3
		p.Worksheet.Soft.TSoftSeconds = f4
		p.Worksheet.Soft.Iterations = i1

		want, wantErr := json.Marshal(p)
		got, gotErr := AppendPrediction(nil, &p)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("marshalability mismatch: json %v, wire %v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding mismatch:\n  json: %s\n  wire: %s", want, got)
		}
	})
}

// FuzzAppendFloatParity renders every finite float64 the fuzzer's bits
// spell and requires json.Marshal's bytes.
func FuzzAppendFloatParity(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 0.578, 1e-7, 1e21, 5e-324, math.MaxFloat64, 1 << 53} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("float encoding mismatch for %#x: json %s, wire %s", bits, want, got)
		}
	})
}

// FuzzFloatTokenParity reads every number token the JSON grammar
// accepts the way valueFloat64 does and requires strconv.ParseFloat's
// value, bit for bit, and its accept/reject outcome.
func FuzzFloatTokenParity(f *testing.F) {
	for _, tc := range floatTokenCases {
		f.Add([]byte(tc.tok))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		d := jsonDecoder{data: body}
		n, err := d.scanNumber()
		if err != nil {
			return // not a number token: FuzzWireDecodeParity's ground
		}
		checkFloatToken(t, n.raw)
	})
}

// FuzzBinaryWorksheetDecode asserts the binary decoder never panics
// and that everything it accepts round-trips bit-for-bit.
func FuzzBinaryWorksheetDecode(f *testing.F) {
	f.Add(AppendBinaryWorksheet(nil, paper.PDF1DParams()))
	f.Add(AppendBinaryWorksheets(nil, []core.Parameters{paper.MDParams()}))
	f.Add([]byte("RATB\x01\x01"))
	f.Add([]byte("RATB\x01\x02\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, err := DecodeBinaryWorksheet(frame, nil)
		if err != nil {
			return
		}
		again := AppendBinaryWorksheet(nil, p)
		if !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame does not round-trip:\n  in:  % x\n  out: % x", frame, again)
		}
	})
}
