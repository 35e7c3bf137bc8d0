package worksheet

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/chrec/rat/internal/core"
)

// JSON form of the worksheet, for toolchains that prefer structured
// interchange over the human-oriented text format. Field names and
// units mirror the text format exactly (MB/s, MHz, seconds).

// Doc is the exported name of the JSON document form, for packages
// (the HTTP API) that embed a worksheet inside a larger message.
type Doc = jsonWorksheet

// DocFromParams converts Parameters to the JSON document form.
func DocFromParams(p core.Parameters) Doc { return fromParams(p) }

// Params converts the document back to Parameters without validating;
// callers that accept untrusted documents must call Validate.
func (doc Doc) Params() core.Parameters { return doc.toParams() }

type jsonWorksheet struct {
	Name    string   `json:"name,omitempty"`
	Dataset jsonData `json:"dataset"`
	Comm    jsonComm `json:"communication"`
	Comp    jsonComp `json:"computation"`
	Soft    jsonSoft `json:"software"`
}

type jsonData struct {
	ElementsIn      int64   `json:"elements_in"`
	ElementsOut     int64   `json:"elements_out"`
	BytesPerElement float64 `json:"bytes_per_element"`
}

type jsonComm struct {
	IdealThroughputMBps float64 `json:"ideal_throughput_mbps"`
	AlphaWrite          float64 `json:"alpha_write"`
	AlphaRead           float64 `json:"alpha_read"`
}

type jsonComp struct {
	OpsPerElement  float64 `json:"ops_per_element"`
	ThroughputProc float64 `json:"throughput_proc"`
	ClockMHz       float64 `json:"clock_mhz"`
}

type jsonSoft struct {
	TSoftSeconds float64 `json:"tsoft_seconds"`
	Iterations   int64   `json:"iterations"`
}

// fromParams converts Parameters to the JSON document form.
func fromParams(p core.Parameters) jsonWorksheet {
	return jsonWorksheet{
		Name: p.Name,
		Dataset: jsonData{
			ElementsIn:      p.Dataset.ElementsIn,
			ElementsOut:     p.Dataset.ElementsOut,
			BytesPerElement: p.Dataset.BytesPerElement,
		},
		Comm: jsonComm{
			IdealThroughputMBps: p.Comm.IdealThroughput / 1e6,
			AlphaWrite:          p.Comm.AlphaWrite,
			AlphaRead:           p.Comm.AlphaRead,
		},
		Comp: jsonComp{
			OpsPerElement:  p.Comp.OpsPerElement,
			ThroughputProc: p.Comp.ThroughputProc,
			ClockMHz:       p.Comp.ClockHz / 1e6,
		},
		Soft: jsonSoft{
			TSoftSeconds: p.Soft.TSoft,
			Iterations:   p.Soft.Iterations,
		},
	}
}

// toParams converts the JSON document form back to Parameters
// (unvalidated; callers validate).
func (doc jsonWorksheet) toParams() core.Parameters {
	return core.Parameters{
		Name: doc.Name,
		Dataset: core.DatasetParams{
			ElementsIn:      doc.Dataset.ElementsIn,
			ElementsOut:     doc.Dataset.ElementsOut,
			BytesPerElement: doc.Dataset.BytesPerElement,
		},
		Comm: core.CommParams{
			IdealThroughput: core.MBps(doc.Comm.IdealThroughputMBps),
			AlphaWrite:      doc.Comm.AlphaWrite,
			AlphaRead:       doc.Comm.AlphaRead,
		},
		Comp: core.CompParams{
			OpsPerElement:  doc.Comp.OpsPerElement,
			ThroughputProc: doc.Comp.ThroughputProc,
			ClockHz:        core.MHz(doc.Comp.ClockMHz),
		},
		Soft: core.SoftwareParams{
			TSoft:      doc.Soft.TSoftSeconds,
			Iterations: doc.Soft.Iterations,
		},
	}
}

// EncodeJSON writes the worksheet as indented JSON.
func EncodeJSON(w io.Writer, p core.Parameters) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fromParams(p))
}

// DecodeJSON parses a JSON worksheet, rejecting unknown fields (a
// misspelled parameter silently defaulting to zero would make a
// prediction quietly wrong), and validates the result.
func DecodeJSON(r io.Reader) (core.Parameters, error) {
	doc, err := DecodeDoc(r)
	if err != nil {
		return core.Parameters{}, err
	}
	return doc.Params(), nil
}

// DecodeDoc is DecodeJSON keeping the document form, for a request
// that embeds the worksheet exactly as written: converting the
// Parameters back to MHz and MB/s need not give the same floats.
func DecodeDoc(r io.Reader) (Doc, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc jsonWorksheet
	if err := dec.Decode(&doc); err != nil {
		return Doc{}, fmt.Errorf("%w: %v", ErrSyntax, err)
	}
	if err := doc.toParams().Validate(); err != nil {
		return Doc{}, err
	}
	return doc, nil
}
