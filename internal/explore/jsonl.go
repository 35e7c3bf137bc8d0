package explore

import (
	"encoding/json"
	"io"
)

// JSONLCandidate is the JSONL record schema of the explore CLIs:
// `ratsim explore -jsonl` and `ratctl explore -jsonl` both write it,
// so the CI cluster-smoke job can diff distributed output against
// single-node output byte for byte. ratd's `?stream=jsonl` lines are
// api.ExploreLine records carrying an api.Candidate instead.
type JSONLCandidate struct {
	Set            string  `json:"set"` // "top" or "frontier"
	Index          uint64  `json:"index"`
	ClockHz        float64 `json:"clock_hz"`
	ThroughputProc float64 `json:"throughput_proc"`
	AlphaWrite     float64 `json:"alpha_write"`
	AlphaRead      float64 `json:"alpha_read"`
	ElementsIn     int64   `json:"elements_in"`
	ElementsOut    int64   `json:"elements_out"`
	Iterations     int64   `json:"iterations"`
	Devices        int     `json:"devices"`
	Buffering      string  `json:"buffering"`
	TComm          float64 `json:"t_comm"`
	TComp          float64 `json:"t_comp"`
	TRC            float64 `json:"t_rc"`
	Speedup        float64 `json:"speedup"`
	UtilComm       float64 `json:"util_comm"`
	UtilComp       float64 `json:"util_comp"`
}

// WriteJSONL emits one JSON object per candidate, newline-terminated,
// tagged with the set name ("top" or "frontier").
func WriteJSONL(out io.Writer, set string, cands []Candidate) error {
	enc := json.NewEncoder(out)
	for _, c := range cands {
		rec := JSONLCandidate{
			Set: set, Index: c.Index, ClockHz: c.ClockHz,
			ThroughputProc: c.ThroughputProc,
			AlphaWrite:     c.AlphaWrite, AlphaRead: c.AlphaRead,
			ElementsIn: c.ElementsIn, ElementsOut: c.ElementsOut,
			Iterations: c.Iterations, Devices: c.Devices,
			Buffering: c.Buffering.String(),
			TComm:     c.TComm, TComp: c.TComp, TRC: c.TRC,
			Speedup: c.Speedup, UtilComm: c.UtilComm, UtilComp: c.UtilComp,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
