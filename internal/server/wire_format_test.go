package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/wire"
)

// postWire sends one predict request with explicit wire formats on
// each side and returns status, body and response Content-Type.
func postWire(t *testing.T, ts *httptest.Server, query string, body []byte, binReq, binResp bool) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if binReq {
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	if binResp {
		req.Header.Set("Accept", wire.ContentTypeBinary)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header.Get("Content-Type")
}

// TestWireFormatParity pins the two wire formats against each other
// for every paper case study: the JSON response is byte-identical no
// matter how the request body was encoded, the binary response
// likewise, and both decode to exactly (!=, no tolerance) the
// prediction rat.Predict computes.
func TestWireFormatParity(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		p := paper.Params(c)
		want, err := core.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		jsonBody := encodeWorksheet(t, p)
		binBody := wire.AppendBinaryWorksheet(nil, p)

		// All four body×response combinations.
		var jsonResp, binResp []byte
		for _, tc := range []struct {
			name     string
			body     []byte
			binReq   bool
			binResp  bool
			wantType string
		}{
			{"json/json", jsonBody, false, false, "application/json"},
			{"bin/json", binBody, true, false, "application/json"},
			{"json/bin", jsonBody, false, true, wire.ContentTypeBinary},
			{"bin/bin", binBody, true, true, wire.ContentTypeBinary},
		} {
			status, out, ctype := postWire(t, ts, "", tc.body, tc.binReq, tc.binResp)
			if status != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", c, tc.name, status, out)
			}
			if ctype != tc.wantType {
				t.Errorf("%s %s: Content-Type %q, want %q", c, tc.name, ctype, tc.wantType)
			}
			var got core.Prediction
			if tc.binResp {
				pr, err := wire.DecodeBinaryPrediction(out)
				if err != nil {
					t.Fatalf("%s %s: %v", c, tc.name, err)
				}
				got = pr.Core()
				if binResp == nil {
					binResp = out
				} else if !bytes.Equal(out, binResp) {
					t.Errorf("%s %s: binary response differs across request encodings", c, tc.name)
				}
			} else {
				var pr api.Prediction
				if err := json.Unmarshal(out, &pr); err != nil {
					t.Fatalf("%s %s: %v", c, tc.name, err)
				}
				got = pr.Core()
				if jsonResp == nil {
					jsonResp = out
				} else if !bytes.Equal(out, jsonResp) {
					t.Errorf("%s %s: JSON response differs across request encodings", c, tc.name)
				}
			}
			if got != want {
				t.Errorf("%s %s: served prediction differs from rat.Predict\n got %+v\nwant %+v",
					c, tc.name, got, want)
			}
		}
	}
}

// TestWireFormatParityMulti does the same for the multi-FPGA path
// (devices/topology query parameters) in both response formats.
func TestWireFormatParityMulti(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	for _, c := range []paper.Case{paper.PDF1D, paper.PDF2D, paper.MD} {
		p := paper.Params(c)
		cfg := core.MultiConfig{Devices: 4, Topology: core.IndependentChannels}
		want, err := core.PredictMulti(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		query := "?devices=4&topology=independent"

		status, jsonOut, _ := postWire(t, ts, query, encodeWorksheet(t, p), false, false)
		if status != http.StatusOK {
			t.Fatalf("%s json: status %d: %s", c, status, jsonOut)
		}
		var jm api.MultiPrediction
		if err := json.Unmarshal(jsonOut, &jm); err != nil {
			t.Fatal(err)
		}
		status, binOut, _ := postWire(t, ts, query, wire.AppendBinaryWorksheet(nil, p), true, true)
		if status != http.StatusOK {
			t.Fatalf("%s bin: status %d: %s", c, status, binOut)
		}
		bm, err := wire.DecodeBinaryMultiPrediction(binOut)
		if err != nil {
			t.Fatal(err)
		}
		if got := jm.Core(); got != want {
			t.Errorf("%s: JSON multi prediction differs from rat.PredictMulti", c)
		}
		if got := bm.Core(); got != want {
			t.Errorf("%s: binary multi prediction differs from rat.PredictMulti", c)
		}
	}
}

// TestWireFormatBatchParity pins /v1/predict/batch across formats:
// every element of the batch response, in either encoding, equals
// rat.Predict of the corresponding worksheet with !=.
func TestWireFormatBatchParity(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	ps := []core.Parameters{paper.PDF1DParams(), paper.PDF2DParams(), paper.MDParams()}
	var jsonBody bytes.Buffer
	jsonBody.WriteByte('[')
	for i, p := range ps {
		if i > 0 {
			jsonBody.WriteByte(',')
		}
		jsonBody.Write(encodeWorksheet(t, p))
	}
	jsonBody.WriteByte(']')
	binBody := wire.AppendBinaryWorksheets(nil, ps)

	check := func(name string, preds []core.Prediction) {
		t.Helper()
		if len(preds) != len(ps) {
			t.Fatalf("%s: %d predictions for %d worksheets", name, len(preds), len(ps))
		}
		for i, p := range ps {
			want, err := core.Predict(p)
			if err != nil {
				t.Fatal(err)
			}
			if preds[i] != want {
				t.Errorf("%s: element %d differs from rat.Predict", name, i)
			}
		}
	}

	do := func(name string, body []byte, binReq, binResp bool) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if binReq {
			req.Header.Set("Content-Type", wire.ContentTypeBinary)
		}
		if binResp {
			req.Header.Set("Accept", wire.ContentTypeBinary)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, out)
		}
		if binResp {
			aps, err := wire.DecodeBinaryPredictions(out)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			preds := make([]core.Prediction, len(aps))
			for i := range aps {
				preds[i] = aps[i].Core()
			}
			check(name, preds)
		} else {
			var aps []api.Prediction
			if err := json.Unmarshal(out, &aps); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			preds := make([]core.Prediction, len(aps))
			for i := range aps {
				preds[i] = aps[i].Core()
			}
			check(name, preds)
		}
	}
	do("json/json", jsonBody.Bytes(), false, false)
	do("bin/json", binBody, true, false)
	do("json/bin", jsonBody.Bytes(), false, true)
	do("bin/bin", binBody, true, true)
}

// TestCacheKeepsFormatsApart proves the response cache never hands a
// JSON body to a binary request or vice versa: the same worksheet
// requested in both formats — in both orders, so each format fills
// the cache first once — always answers in the asked-for encoding.
func TestCacheKeepsFormatsApart(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	p := paper.PDF1DParams()
	body := encodeWorksheet(t, p)
	for round := 0; round < 2; round++ {
		for _, binResp := range []bool{round == 0, round != 0} {
			status, out, ctype := postWire(t, ts, "", body, false, binResp)
			if status != http.StatusOK {
				t.Fatalf("round %d binResp=%v: status %d: %s", round, binResp, status, out)
			}
			if binResp {
				if ctype != wire.ContentTypeBinary {
					t.Fatalf("round %d: binary request answered with Content-Type %q", round, ctype)
				}
				if _, err := wire.DecodeBinaryPrediction(out); err != nil {
					t.Fatalf("round %d: binary request got a non-binary body: %v", round, err)
				}
			} else {
				if ctype != "application/json" {
					t.Fatalf("round %d: JSON request answered with Content-Type %q", round, ctype)
				}
				var pr api.Prediction
				if err := json.Unmarshal(out, &pr); err != nil {
					t.Fatalf("round %d: JSON request got a non-JSON body: %v", round, err)
				}
			}
		}
	}
}
