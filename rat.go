// Package rat is the RC Amenability Test: a methodology for predicting
// the performance of an application design migrated to an FPGA
// platform before any hardware code is written, reproducing Holland,
// Nagarajan, Conger, Jacobs and George, "RAT: A Methodology for
// Predicting Performance in Application Design Migration to FPGAs"
// (HPRCTA'07).
//
// The package is a facade over the library's internal packages,
// re-exporting the pieces a downstream user needs:
//
//   - the throughput test (Eqs. 1-11): Parameters -> Predict ->
//     Prediction, plus the inverse solvers, sweeps, multi-kernel
//     composition and the streaming variant;
//   - the numerical-precision test: candidate formats, empirical error
//     measurement hooks, minimum-width search and the cost-aware
//     recommendation;
//   - the resource test: the FPGA device database, operator cost
//     model, demand estimation and fit checking;
//   - the Figure 1 methodology driver tying the three together; and
//   - the worksheet file format used by the rat command-line tool.
//
// A minimal session, predicting the paper's 1-D PDF walkthrough:
//
//	p := rat.Parameters{
//		Dataset: rat.DatasetParams{ElementsIn: 512, ElementsOut: 1, BytesPerElement: 4},
//		Comm:    rat.CommParams{IdealThroughput: rat.MBps(1000), AlphaWrite: 0.37, AlphaRead: 0.16},
//		Comp:    rat.CompParams{OpsPerElement: 768, ThroughputProc: 20, ClockHz: rat.MHz(150)},
//		Soft:    rat.SoftwareParams{TSoft: 0.578, Iterations: 400},
//	}
//	pr, err := rat.Predict(p)
//	// pr.SpeedupSingle == 10.58, the paper's 10.6
//
// The simulated RC platforms that stand in for the paper's hardware
// testbeds live behind rat.NallatechH101, rat.XtremeDataXD1000 and
// rat.Simulate; the three published case studies are available intact
// through rat.CaseStudy and rat.CaseStudyScenario.
//
// The methodology is also servable over HTTP/JSON: cmd/ratd is the
// prediction daemon and the client package is its typed Go client,
// both returning bit-for-bit what Predict and PredictMulti compute
// locally. See docs/SERVER.md.
package rat

import (
	"io"

	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/explore"
	"github.com/chrec/rat/internal/kernel"
	"github.com/chrec/rat/internal/methodology"
	"github.com/chrec/rat/internal/power"
	"github.com/chrec/rat/internal/precision"
	"github.com/chrec/rat/internal/resource"
	"github.com/chrec/rat/internal/validate"
	"github.com/chrec/rat/internal/worksheet"
)

// Throughput-test types (Section 3.1 / Table 1).
type (
	// Parameters is the complete RAT input worksheet.
	Parameters = core.Parameters
	// DatasetParams describe one buffered block of the problem.
	DatasetParams = core.DatasetParams
	// CommParams describe the CPU<->FPGA interconnect.
	CommParams = core.CommParams
	// CompParams describe the FPGA computation.
	CompParams = core.CompParams
	// SoftwareParams anchor the speedup baseline.
	SoftwareParams = core.SoftwareParams
	// Prediction is the full throughput-test output.
	Prediction = core.Prediction
	// Buffering selects the overlap discipline of Figure 2.
	Buffering = core.Buffering
	// StreamingPrediction is the streaming-variant output.
	StreamingPrediction = core.StreamingPrediction
	// Stage is one kernel of a multi-kernel application.
	Stage = core.Stage
	// CompositeResult aggregates a multi-kernel analysis.
	CompositeResult = core.CompositeResult
	// SweepPoint pairs a swept value with its prediction.
	SweepPoint = core.SweepPoint
	// MultiConfig describes a multi-FPGA system (Section 6 extension).
	MultiConfig = core.MultiConfig
	// MultiPrediction is the multi-FPGA throughput-test output.
	MultiPrediction = core.MultiPrediction
	// Topology selects the multi-FPGA interconnect arrangement.
	Topology = core.Topology
	// Uncertainty gives relative half-widths for estimated inputs.
	Uncertainty = core.Uncertainty
	// Bounds is an interval prediction from uncertain inputs.
	Bounds = core.Bounds
	// TargetVerdict classifies a goal against interval bounds.
	TargetVerdict = core.TargetVerdict
)

// Multi-FPGA topologies and interval-verdict values.
const (
	SharedChannel       = core.SharedChannel
	IndependentChannels = core.IndependentChannels

	TargetImpossible = core.TargetImpossible
	TargetUncertain  = core.TargetUncertain
	TargetCertain    = core.TargetCertain
)

// Buffering disciplines.
const (
	SingleBuffered = core.SingleBuffered
	DoubleBuffered = core.DoubleBuffered
)

// Unit helpers for the paper's customary units.
var (
	// MBps converts decimal megabytes per second to bytes/second.
	MBps = core.MBps
	// GBps converts decimal gigabytes per second to bytes/second.
	GBps = core.GBps
	// MHz converts megahertz to hertz.
	MHz = core.MHz
)

// Throughput test: forward prediction (Eqs. 1-11).
var (
	// Predict evaluates the throughput test.
	Predict = core.Predict
	// MustPredict is Predict for known-valid parameters.
	MustPredict = core.MustPredict
	// PredictStreaming evaluates the streaming variant.
	PredictStreaming = core.PredictStreaming
	// PredictComposite analyzes a multi-kernel application.
	PredictComposite = core.PredictComposite
	// PredictMulti evaluates the multi-FPGA extension.
	PredictMulti = core.PredictMulti
	// ScalingKnee locates the shared-channel saturation point.
	ScalingKnee = core.ScalingKnee
	// SweepDevices evaluates multi-FPGA scaling curves.
	SweepDevices = core.SweepDevices
	// PredictBounds brackets a prediction under input uncertainty.
	PredictBounds = core.PredictBounds
)

// Inverse solvers and design-space exploration.
var (
	// SolveThroughputProc returns the ops/cycle a target speedup needs.
	SolveThroughputProc = core.SolveThroughputProc
	// SolveClock returns the clock frequency a target speedup needs.
	SolveClock = core.SolveClock
	// SolveAlpha returns the interconnect efficiency a target needs.
	SolveAlpha = core.SolveAlpha
	// RequiredTSoft inverts the break-even question.
	RequiredTSoft = core.RequiredTSoft
	// CrossoverClock returns the comm/compute-bound boundary clock.
	CrossoverClock = core.CrossoverClock
	// SweepClock evaluates a prediction across clock frequencies.
	SweepClock = core.SweepClock
	// SweepThroughputProc evaluates across sustained ops/cycle.
	SweepThroughputProc = core.SweepThroughputProc
	// Sweep evaluates across any single mutated parameter.
	Sweep = core.Sweep
	// SweepPoints pairs swept values with predictions.
	SweepPoints = core.SweepPoints
	// FindCrossover locates a comm/compute-bound regime flip.
	FindCrossover = core.FindCrossover
)

// Batch evaluation: the zero-allocation path behind large sweeps and
// the exploration engine.
var (
	// PredictInto evaluates the throughput test into caller storage.
	PredictInto = core.PredictInto
	// PredictBatch evaluates a whole slice of worksheets at once.
	PredictBatch = core.PredictBatch
)

// Design-space exploration: parallel evaluation of a Cartesian grid of
// candidate worksheets with streaming top-K and Pareto-frontier
// selection (package internal/explore; see docs/EXPLORE.md).
type (
	// Grid is a Cartesian design space around a base worksheet.
	Grid = explore.Grid
	// ExploreOptions configure an exploration run.
	ExploreOptions = explore.Options
	// ExploreConstraints filter candidates before ranking.
	ExploreConstraints = explore.Constraints
	// ExploreResult is the outcome of exploring a grid.
	ExploreResult = explore.Result
	// ExploreCandidate is one evaluated design point.
	ExploreCandidate = explore.Candidate
	// ExploreObjective selects what "best" means for the top-K.
	ExploreObjective = explore.Objective
)

// Exploration objectives.
const (
	MaxSpeedup = explore.MaxSpeedup
	MinTRC     = explore.MinTRC
	MinCost    = explore.MinCost
)

var (
	// Explore searches a grid, in parallel, and returns the top-K and,
	// when ExploreOptions.Frontier is set, the Pareto frontier. It
	// evaluates only the candidates that can change that answer; the
	// result is identical to evaluating every one, for any worker
	// count.
	Explore = explore.Run
	// Frontier extracts the Pareto-optimal subset of candidates.
	Frontier = explore.Frontier
	// ParseObjective converts an objective name back to a value.
	ParseObjective = explore.ParseObjective
)

// Sentinel errors of the throughput test.
var (
	// ErrInvalidParameters tags worksheet validation failures.
	ErrInvalidParameters = core.ErrInvalidParameters
	// ErrUnreachable tags speedup targets no parameter value reaches.
	ErrUnreachable = core.ErrUnreachable
)

// Precision test (Section 3.2).
type (
	// PrecisionCandidate is one number-format option.
	PrecisionCandidate = precision.Candidate
)

var (
	// RecommendPrecision applies the Section 4.2 decision rule.
	RecommendPrecision = precision.Recommend
	// MinWidth searches for the narrowest format meeting a tolerance.
	MinWidth = precision.MinWidth
	// FixedCandidate builds a fixed-point trade-study row.
	FixedCandidate = precision.FixedCandidate
	// Float32Candidate builds the floating-point comparison row.
	Float32Candidate = precision.Float32Candidate
	// RelativeError measures peak-normalized kernel error.
	RelativeError = precision.RelativeError
	// ErrUnrealizable tags tolerances no candidate meets.
	ErrUnrealizable = precision.ErrUnrealizable
)

// Resource test (Section 3.3).
type (
	// Device is an FPGA part's resource inventory.
	Device = resource.Device
	// Demand is an estimated resource requirement.
	Demand = resource.Demand
	// ResourceReport is the outcome of the resource test.
	ResourceReport = resource.Report
	// ResourceKind names a resource class.
	ResourceKind = resource.Kind
	// OpClass names an operator for the cost model.
	OpClass = resource.OpClass
)

// Resource classes.
const (
	Logic = resource.Logic
	BRAM  = resource.BRAM
	DSP   = resource.DSP
)

// Operator classes for OperatorCost.
const (
	OpAdd  = resource.OpAdd
	OpMul  = resource.OpMul
	OpMAC  = resource.OpMAC
	OpDiv  = resource.OpDiv
	OpSqrt = resource.OpSqrt
	OpLUT  = resource.OpLUT
	OpReg  = resource.OpReg
)

var (
	// LookupDevice finds a device in the built-in database.
	LookupDevice = resource.Lookup
	// Devices lists the database.
	Devices = resource.Devices
	// RegisterDevice adds a custom part.
	RegisterDevice = resource.Register
	// OperatorCost prices one operator instance on a device.
	OperatorCost = resource.OperatorCost
	// CheckResources runs the fit check.
	CheckResources = resource.Check
	// MaxReplicas answers the scalability question.
	MaxReplicas = resource.MaxReplicas
)

// Methodology driver (Figure 1).
type (
	// Requirements are the designer's acceptance criteria.
	Requirements = methodology.Requirements
	// Design bundles the three tests' inputs.
	Design = methodology.Design
	// Outcome records one methodology pass.
	Outcome = methodology.Outcome
	// Verdict is PROCEED or NEW DESIGN.
	Verdict = methodology.Verdict
)

// Verdicts.
const (
	Proceed   = methodology.Proceed
	NewDesign = methodology.NewDesign
)

// Evaluate runs one pass of the Figure 1 methodology flow.
var Evaluate = methodology.Evaluate

// Post-measurement validation (the Sections 4.3/5.1/5.2 analysis).
type (
	// Measured holds times read off the real or simulated platform.
	Measured = validate.Measured
	// ValidationAnalysis is the per-term comparison with diagnoses.
	ValidationAnalysis = validate.Analysis
	// ValidationTerm is one compared quantity.
	ValidationTerm = validate.Term
)

// CompareMeasured analyzes a prediction against measured times,
// classifying each term and diagnosing recognizable error signatures.
var CompareMeasured = validate.Compare

// Kernel design descriptions: replicated-pipeline architectures from
// which the worksheet's N_ops/element and throughput_proc derive, along
// with resource demand and cycle-accurate batch timing.
type (
	// KernelDesign describes a replicated-pipeline kernel.
	KernelDesign = kernel.Design
	// KernelUnit is one operator instance inside a pipeline.
	KernelUnit = kernel.Unit
)

// ErrBadDesign tags kernel-design validation failures.
var ErrBadDesign = kernel.ErrBadDesign

// Power estimation (the Section 1 speed/area/power triad's third leg).
type PowerModel = power.Model

var (
	// PowerForDevice returns first-order coefficients for a family.
	PowerForDevice = power.ForDevice
	// EstimatePower returns mean watts for a design on a device.
	EstimatePower = power.Estimate
	// CompareEnergy weighs an FPGA run against the CPU baseline run.
	CompareEnergy = power.CompareEnergy
)

// Worksheet file format.

// DecodeWorksheet parses a worksheet file into Parameters.
func DecodeWorksheet(r io.Reader) (Parameters, error) { return worksheet.Decode(r) }

// EncodeWorksheet writes Parameters as a worksheet file.
func EncodeWorksheet(w io.Writer, p Parameters) error { return worksheet.Encode(w, p) }

// DecodeWorksheetJSON parses the JSON worksheet form.
func DecodeWorksheetJSON(r io.Reader) (Parameters, error) { return worksheet.DecodeJSON(r) }

// EncodeWorksheetJSON writes the JSON worksheet form.
func EncodeWorksheetJSON(w io.Writer, p Parameters) error { return worksheet.EncodeJSON(w, p) }

// DecodeProject parses a multi-stage JSON project file (the Section 6
// several-algorithms case) into composite stages.
func DecodeProject(r io.Reader) (string, []Stage, error) { return worksheet.DecodeProject(r) }

// EncodeProject writes stages as a JSON project file.
func EncodeProject(w io.Writer, name string, stages []Stage) error {
	return worksheet.EncodeProject(w, name, stages)
}
