package core

import (
	"fmt"
	"math"
)

// Section 6 of the paper singles out "systems containing multiple
// FPGAs being increasingly deployed" as the methodology's next target.
// This file extends the throughput test to that setting: one host
// distributing each iteration's block across N identical FPGAs.
//
// Two interconnect topologies are modelled:
//
//   - SharedChannel: all devices sit behind one host channel (a single
//     PCI-X bus with several cards). Each iteration still moves the
//     full data volume through the one serialized channel, so t_comm
//     is unchanged while computation divides by N.
//   - IndependentChannels: every device has its own full-bandwidth
//     link (one card per bus/slot), so communication and computation
//     both divide by N.
//
// Both models assume the block parallelizes evenly and ignore
// host-side scatter/gather costs, consistent with the base test's
// level of abstraction.

// Topology selects the multi-FPGA interconnect arrangement.
type Topology int

const (
	// SharedChannel: one serialized host link feeds every device.
	SharedChannel Topology = iota
	// IndependentChannels: one full-bandwidth link per device.
	IndependentChannels
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case SharedChannel:
		return "shared-channel"
	case IndependentChannels:
		return "independent-channels"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// MultiConfig describes the multi-FPGA system.
type MultiConfig struct {
	// Devices is the FPGA count (N >= 1; 1 degenerates exactly to
	// the single-device model).
	Devices int
	// Topology is the interconnect arrangement.
	Topology Topology
}

// MultiPrediction is the multi-FPGA throughput-test output.
type MultiPrediction struct {
	Config MultiConfig
	// Single is the N=1 baseline prediction.
	Single Prediction

	// Per-iteration times under the multi-FPGA model.
	TComm float64 // aggregate communication time per iteration
	TComp float64 // per-device computation time (devices run in parallel)

	// End-to-end times and speedups (Eqs. 5-7 applied to the
	// multi-FPGA per-iteration times).
	TRCSingle     float64
	TRCDouble     float64
	SpeedupSingle float64
	SpeedupDouble float64

	// ScalingEfficiency is the double-buffered speedup relative to
	// perfect N-way scaling of the single-device double-buffered
	// speedup: 1.0 means the extra devices are fully effective.
	ScalingEfficiency float64
}

// PredictMulti evaluates the multi-FPGA throughput test. Like Predict,
// it refuses a worksheet whose derived quantities overflow, with
// CheckFinite's error.
func PredictMulti(p Parameters, cfg MultiConfig) (MultiPrediction, error) {
	if cfg.Devices < 1 {
		return MultiPrediction{}, fmt.Errorf("%w: device count must be >= 1 (got %d)", ErrInvalidParameters, cfg.Devices)
	}
	if cfg.Topology != SharedChannel && cfg.Topology != IndependentChannels {
		return MultiPrediction{}, fmt.Errorf("%w: unknown topology %v", ErrInvalidParameters, cfg.Topology)
	}
	base, err := Predict(p)
	if err != nil {
		return MultiPrediction{}, err
	}
	n := float64(cfg.Devices)
	mp := MultiPrediction{Config: cfg, Single: base}
	mp.TComp = base.TComp / n
	mp.TComm = base.TComm
	if cfg.Topology == IndependentChannels {
		mp.TComm = base.TComm / n
	}
	iters := float64(p.Soft.Iterations)
	mp.TRCSingle = iters * (mp.TComm + mp.TComp)
	mp.TRCDouble = iters * math.Max(mp.TComm, mp.TComp)
	if p.Soft.TSoft > 0 {
		mp.SpeedupSingle = p.Soft.TSoft / mp.TRCSingle
		mp.SpeedupDouble = p.Soft.TSoft / mp.TRCDouble
	}
	ideal := base.SpeedupDouble * n
	if ideal > 0 {
		mp.ScalingEfficiency = mp.SpeedupDouble / ideal
	}
	if err := mp.CheckFinite(); err != nil {
		return MultiPrediction{}, err
	}
	return mp, nil
}

// multiFields names the multi-FPGA quantities CheckFinite inspects
// after the single-device baseline.
var multiFields = [...]string{
	"TComm", "TComp", "TRCSingle", "TRCDouble",
	"SpeedupSingle", "SpeedupDouble", "ScalingEfficiency",
}

// CheckFinite is Prediction.CheckFinite for the multi-FPGA output: the
// single-device baseline first, then the scaled quantities.
func (mp MultiPrediction) CheckFinite() error {
	if err := mp.Single.CheckFinite(); err != nil {
		return err
	}
	return firstNonFinite(multiFields[:],
		mp.TComm, mp.TComp, mp.TRCSingle, mp.TRCDouble,
		mp.SpeedupSingle, mp.SpeedupDouble, mp.ScalingEfficiency)
}

// ScalingKnee returns the device count beyond which a shared-channel
// system is communication-bound under double buffering — the point
// where t_comp/N drops below the fixed t_comm and additional FPGAs
// stop helping. Fractional results are meaningful ("the knee sits
// between 3 and 4 devices"); values below 1 mean even one device is
// communication-bound.
func ScalingKnee(p Parameters) (float64, error) {
	pr, err := Predict(p)
	if err != nil {
		return 0, err
	}
	return pr.TComp / pr.TComm, nil
}

// SweepDevices evaluates the multi-FPGA prediction at each device
// count, for scaling plots.
func SweepDevices(p Parameters, topo Topology, counts []int) ([]MultiPrediction, error) {
	out := make([]MultiPrediction, 0, len(counts))
	for _, n := range counts {
		mp, err := PredictMulti(p, MultiConfig{Devices: n, Topology: topo})
		if err != nil {
			return nil, err
		}
		out = append(out, mp)
	}
	return out, nil
}
