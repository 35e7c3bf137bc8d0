package obs

// Stage names one segment of the serving pipeline. The set matches the
// request's journey through ratd: admission queueing, response-cache
// lookup, the prediction kernel, and response encoding.
type Stage int

const (
	StageAdmission Stage = iota
	StageCache
	// StageBatchWait is reserved and never recorded: ratd answers each
	// predict with a direct kernel call, so there is no batch to wait
	// for. It keeps its slot so X-Rat-Stages stays a five-field value
	// and readers indexing by NumStages keep compiling; it always
	// reads 0.
	StageBatchWait
	StageKernel
	StageEncode
	NumStages
)

// String returns the stage's metric label value.
func (s Stage) String() string {
	switch s {
	case StageAdmission:
		return "admission"
	case StageCache:
		return "cache"
	case StageBatchWait:
		return "batch_wait"
	case StageKernel:
		return "kernel"
	case StageEncode:
		return "encode"
	}
	return "unknown"
}

// Stages lists every stage in order, for ranging.
func Stages() [NumStages]Stage {
	return [NumStages]Stage{StageAdmission, StageCache, StageBatchWait, StageKernel, StageEncode}
}

// StageBounds returns the upper bounds, in seconds, of the
// rat_stage_seconds histogram buckets: 24 log2-spaced buckets from
// 256 ns doubling to about 2.1 s. Longer observations land in the
// overflow count.
func StageBounds() []float64 {
	bounds := make([]float64, 24)
	for i := range bounds {
		bounds[i] = float64(uint64(256)<<uint(i)) / 1e9
	}
	return bounds
}
