package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/paper"
	"github.com/chrec/rat/internal/wire"
	"github.com/chrec/rat/internal/worksheet"
)

// FuzzDecodeWorksheetRequest pins the hostile-input contract of the
// predict endpoint at both layers. The decoder must classify every
// failure into the ErrInvalidParameters / ErrSyntax sentinel families
// (so httpStatus maps it to 400), and the full handler must answer
// malformed bodies with 400 — never a panic, never a 5xx. The same
// body as a one-element array on /v1/predict/batch must never get a
// 5xx either, and when both routes serve it, the batch's element is
// the predict answer byte for byte.
func FuzzDecodeWorksheetRequest(f *testing.F) {
	var valid bytes.Buffer
	if err := worksheet.EncodeJSON(&valid, paper.PDF1DParams()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String(), "", "")
	f.Add(valid.String(), "4", "independent")
	f.Add(valid.String(), "0", "ring")
	f.Add(valid.String(), "-1", "")
	f.Add(valid.String(), "many", "shared")
	f.Add("", "", "")
	f.Add("{", "", "")
	f.Add("null", "", "")
	f.Add("[]", "", "")
	f.Add(`{"unknown_field": 1}`, "", "")
	f.Add(`{"dataset": {"elements_in": -7}}`, "", "")
	f.Add(`{"computation": {"clock_mhz": 1e309}}`, "", "")
	f.Add(`{"software": {"tsoft_seconds": "NaN"}}`, "", "")
	f.Add(strings.Replace(valid.String(), `"elements_in": 512`, `"elements_in": 1e99`, 1), "2", "")
	// Every field in range, but t_write overflows to +Inf.
	overflow := strings.Replace(valid.String(), `"elements_in": 512`, `"elements_in": 1099511627776`, 1)
	overflow = strings.Replace(overflow, `"bytes_per_element": 4`, `"bytes_per_element": 1e300`, 1)
	f.Add(overflow, "", "")
	f.Add(overflow, "2", "")
	// Trailing data: a second worksheet, which the batch serves as
	// element 1, and a stray bracket, which it ignores.
	f.Add(valid.String()+","+valid.String(), "", "")
	f.Add(valid.String()+"]", "", "")

	srv := New(Config{CacheSize: -1})
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, body, devices, topology string) {
		// Layer 1: the decoders of the body and the query either
		// succeed or return a classified error from the 400 families.
		_, err := wire.DecodeWorksheet([]byte(body))
		if err == nil {
			_, err = multiConfigFromQuery(devices, topology)
		}
		if err != nil &&
			!errors.Is(err, core.ErrInvalidParameters) &&
			!errors.Is(err, worksheet.ErrSyntax) {
			t.Fatalf("decode error escaped the sentinel families: %v", err)
		}

		// Layer 2: the handler never answers 5xx to request defects. A
		// panic would fail the fuzz run on its own. (Escaping keeps
		// hostile bytes as parameter values rather than URL syntax.)
		q := "?devices=" + url.QueryEscape(devices) + "&topology=" + url.QueryEscape(topology)
		rec := serve(handler, "/v1/predict"+q, body)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest:
		default:
			t.Fatalf("handler answered %d for body %q devices %q topology %q; want 200 or 400\nbody: %s",
				rec.Code, body, devices, topology, rec.Body.String())
		}
		if err != nil && rec.Code == http.StatusOK {
			t.Fatalf("decoder rejected the request but the handler served it: %v", err)
		}

		// Layer 3: the batch route on the same server. The two routes
		// need not agree on 200 against 400: a single worksheet ignores
		// trailing data, an array element does not.
		batch := serve(handler, "/v1/predict/batch", "["+body+"]")
		if batch.Code >= 500 {
			t.Fatalf("batch answered %d for body %q\nbody: %s", batch.Code, body, batch.Body.String())
		}
		if batch.Code != http.StatusOK {
			return
		}
		single := serve(handler, "/v1/predict", body)
		if single.Code != http.StatusOK {
			return
		}
		p := bytes.TrimSuffix(single.Body.Bytes(), newline)
		rest, ok := bytes.CutPrefix(batch.Body.Bytes(), append([]byte("["), p...))
		if !ok || len(rest) == 0 || rest[0] != ',' && rest[0] != ']' {
			t.Fatalf("batch element 0 is not the predict answer for body %q:\n  predict: %s\n  batch:   %s", body, p, batch.Body.Bytes())
		}
	})
}

// serve answers one POST of body to path.
func serve(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}
