// Package telemetry is the repository's observability substrate: a
// lightweight, concurrency-safe metrics registry (counters, gauges and
// fixed-bucket histograms) with text and Prometheus encoders, a
// structured JSONL event log that the simulated RC platforms emit
// transfer/compute/buffer-swap records into, and a Chrome
// trace_event-format exporter so every timeline package trace can draw
// as ASCII also opens in chrome://tracing or Perfetto.
//
// The package exists because RAT's whole argument is an accounting of
// where time goes (Eqs. 8-11, the Figure 2 overlap schedules); this
// makes that accounting machine-readable instead of only printable.
// Metric names, the event schema and the trace format are documented
// in docs/OBSERVABILITY.md.
package telemetry
