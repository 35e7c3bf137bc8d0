// Package metric is the metricname fixture: every registration shape
// the repository uses, valid and broken.
package metric

import (
	"fmt"

	"github.com/chrec/rat/internal/telemetry"
)

// Register exercises the registry constructors.
func Register(reg *telemetry.Registry, endpoint string, code int) {
	// Valid shapes.
	reg.Counter("server.requests")
	reg.Gauge("rat_inflight")
	reg.Gauge("harness.experiment.pdf1d")
	reg.Histogram(`rat_request_seconds{endpoint="predict"}`, []float64{1})
	reg.Counter("server.inflight." + endpoint)
	//rat:bounded-labels code and endpoint come from fixed enums
	reg.Counter(fmt.Sprintf(`rat_requests_total{code="%d",endpoint="%s"}`, code, endpoint))
	reg.Counter(endpoint) // fully dynamic: not statically checkable
	//rat:bounded-labels fixture: concat label value with a stated bound
	reg.Counter(`annotated_concat{tenant="` + endpoint + `"}`)
	reg.Counter(fmt.Sprintf("verb_in_family_%s_only", endpoint)) // dynamic family, no labels

	// Broken shapes.
	reg.Counter("server requests")
	reg.Gauge("2fast")
	reg.Counter("")
	reg.Histogram(`rat_request_seconds{endpoint=predict}`, []float64{1})
	reg.Counter(`dup{a="1",a="2"}`)
	reg.Gauge(`open_block{a="1"`)
	reg.Counter(fmt.Sprintf(`bad name{code="%d"}`, code))
	reg.Counter("bad prefix." + endpoint)

	// Unbounded label values: a runtime value spliced into a label
	// block with no //rat:bounded-labels annotation.
	reg.Counter(fmt.Sprintf(`rat_tenant_requests_total{tenant="%s"}`, endpoint))
	reg.Counter(`unbounded_concat{tenant="` + endpoint + `"}`)
	reg.Histogram(fmt.Sprintf(`unbounded_hist_seconds{user="%s"}`, endpoint), []float64{1})
}
