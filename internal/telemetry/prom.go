package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for Snapshots.
//
// Registry metric names may carry labels inline, in the conventional
// exposition shape: `rat_requests_total{code="200",endpoint="predict"}`.
// WriteProm splits the family name from the label set, groups every
// label-set of one family under a single # HELP / # TYPE pair, and
// renders:
//
//   - counters and gauges as single samples,
//   - histograms as cumulative `_bucket{le="..."}` series (the
//     registry's buckets are per-bucket counts; the encoder makes them
//     cumulative and appends the mandatory le="+Inf" bucket) plus
//     `_sum` and `_count`.
//
// Names are sanitized to the Prometheus grammar (runs of invalid
// characters become `_`, so legacy dotted names like `server.cache_hits`
// export as `server_cache_hits`).

// ContentTypeProm is the Content-Type of the exposition format.
const ContentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// promFamily is one metric family being assembled for output: a type,
// a help line, and its samples keyed by label set.
type promFamily struct {
	name    string
	typ     string
	help    string
	samples []promSample
}

// promSample is one rendered exposition line body: the text after the
// family name, e.g. `{code="200"} 17` or `_bucket{le="0.1"} 4`.
type promSample struct {
	sortKey string
	line    string
}

// splitPromName separates an inline label block from a registry metric
// name: `foo{a="b"}` -> (`foo`, `a="b"`). Names without labels return
// an empty label string.
func splitPromName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	rest := name[i+1:]
	if j := strings.LastIndexByte(rest, '}'); j >= 0 {
		rest = rest[:j]
	}
	return name[:i], rest
}

// sanitizePromName rewrites a metric or family name into the
// Prometheus name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizePromName(name string) string {
	if name == "" {
		return "_"
	}
	var b []byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if ok {
			if b != nil {
				b = append(b, c)
			}
			continue
		}
		if b == nil {
			b = append([]byte{}, name[:i]...)
		}
		b = append(b, '_')
	}
	if b == nil {
		return name
	}
	return string(b)
}

// promFloat renders a float64 sample value, using the exposition
// spellings for the special values.
func promFloat(v float64) string {
	switch {
	case v != v:
		return "NaN"
	case v > 1e308*1.6:
		return "+Inf"
	case v < -1e308*1.6:
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// joinLabels merges a base label block with one extra label.
func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	if extra == "" {
		return base
	}
	return base + "," + extra
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format. Families and samples are emitted in sorted order so output
// is stable for tests and diffing.
func WriteProm(w io.Writer, s Snapshot) error {
	families := map[string]*promFamily{}
	get := func(name, typ, help string) *promFamily {
		f, ok := families[name]
		if !ok {
			f = &promFamily{name: name, typ: typ, help: help}
			families[name] = f
		}
		if f.typ != typ {
			return nil // family claimed by another type; drop rather than corrupt
		}
		return f
	}

	for name, v := range s.Counters {
		fam, labels := splitPromName(name)
		fam = sanitizePromName(fam)
		f := get(fam, "counter", "Cumulative count of "+fam+" events.")
		if f == nil {
			continue
		}
		body := " " + strconv.FormatInt(v, 10)
		if labels != "" {
			body = "{" + labels + "}" + body
		}
		f.samples = append(f.samples, promSample{sortKey: labels, line: fam + body})
	}
	for name, v := range s.Gauges {
		fam, labels := splitPromName(name)
		fam = sanitizePromName(fam)
		f := get(fam, "gauge", "Current value of "+fam+".")
		if f == nil {
			continue
		}
		body := " " + promFloat(v)
		if labels != "" {
			body = "{" + labels + "}" + body
		}
		f.samples = append(f.samples, promSample{sortKey: labels, line: fam + body})
	}
	for name, h := range s.Histograms {
		fam, labels := splitPromName(name)
		fam = sanitizePromName(fam)
		f := get(fam, "histogram", "Distribution of "+fam+".")
		if f == nil {
			continue
		}
		var cum int64
		for i, b := range h.Buckets {
			cum += b.Count
			le := joinLabels(labels, `le="`+promFloat(b.UpperBound)+`"`)
			f.samples = append(f.samples, promSample{
				sortKey: labels + "\x00" + fmt.Sprintf("%06d", i),
				line:    fam + `_bucket{` + le + `} ` + strconv.FormatInt(cum, 10),
			})
		}
		// The spec's mandatory +Inf bucket: everything, including
		// observations past the last finite bound.
		inf := joinLabels(labels, `le="+Inf"`)
		f.samples = append(f.samples,
			promSample{
				sortKey: labels + "\x00" + fmt.Sprintf("%06d", len(h.Buckets)),
				line:    fam + `_bucket{` + inf + `} ` + strconv.FormatInt(h.Count, 10),
			})
		lb := ""
		if labels != "" {
			lb = "{" + labels + "}"
		}
		f.samples = append(f.samples,
			promSample{sortKey: labels + "\x00\xffsum", line: fam + "_sum" + lb + " " + promFloat(h.Sum)},
			promSample{sortKey: labels + "\x00\xffcount", line: fam + "_count" + lb + " " + strconv.FormatInt(h.Count, 10)},
		)
	}

	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := families[n]
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].sortKey < f.samples[j].sortKey })
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, smp := range f.samples {
			if _, err := io.WriteString(w, smp.line+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
