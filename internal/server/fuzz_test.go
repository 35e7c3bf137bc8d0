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
// malformed bodies with 400 — never a panic, never a 5xx.
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
		req := httptest.NewRequest(http.MethodPost, "/v1/predict"+q, strings.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest:
		default:
			t.Fatalf("handler answered %d for body %q devices %q topology %q; want 200 or 400\nbody: %s",
				rec.Code, body, devices, topology, rec.Body.String())
		}
		if err != nil && rec.Code == http.StatusOK {
			t.Fatalf("decoder rejected the request but the handler served it: %v", err)
		}
	})
}
