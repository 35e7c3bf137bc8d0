package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// WriteText renders a snapshot as a stable, human-readable listing:
// one metric per line, grouped by type, names sorted.
func WriteText(w io.Writer, s Snapshot) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter %-40s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge   %-40s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "histo   %-40s count=%d sum=%g", name, h.Count, h.Sum); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, " le(%g)=%d", b.UpperBound, b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, " over=%d\n", h.Overflow); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
