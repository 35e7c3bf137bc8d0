package obs

import (
	"math/bits"
	"sync/atomic"
	"time"

	"github.com/chrec/rat/internal/telemetry"
)

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

const (
	// stageShards spreads concurrent observers across cache lines; a
	// power of two so shard selection is a mask.
	stageShards = 8
	// numStageBuckets log2-spaced buckets from 256ns doubling to
	// ~2.1s; longer observations land in the overflow count.
	numStageBuckets = 24
	// stageBucketBaseNs is the first bucket's inclusive upper bound.
	stageBucketBaseNs = 256
)

// stageShard is one shard's counters. Counts are per (stage, bucket),
// plus a total and a nanosecond sum per stage so snapshots can report
// counts and means without walking buckets twice.
type stageShard struct {
	counts [NumStages][numStageBuckets + 1]atomic.Int64 // last slot = overflow
	sums   [NumStages]atomic.Int64
	// pad keeps neighbouring shards off one cache line.
	_ [64]byte
}

// StageSet accumulates per-stage latency distributions without locks:
// Observe is a few atomic adds on a shard picked from the observation
// itself, so concurrent requests rarely contend on one cache line.
// The zero value is ready to use.
type StageSet struct {
	shards [stageShards]stageShard
}

// Observe records one stage latency. Negative durations count as zero.
// Safe for unlimited concurrency.
func (ss *StageSet) Observe(s Stage, d time.Duration) {
	if s < 0 || s >= NumStages {
		return
	}
	if d < 0 {
		d = 0
	}
	n := uint64(d)
	// Shard on the observation's own low bits: nanosecond-resolution
	// clocks make them effectively random, and the choice costs
	// nothing. Mix in higher bits for coarse clocks.
	sh := &ss.shards[(n^n>>7^n>>13)&(stageShards-1)]
	sh.counts[s][stageBucket(n)].Add(1)
	sh.sums[s].Add(int64(d))
}

// stageBucket maps nanoseconds to the index of the first bucket whose
// upper bound contains it; numStageBuckets means overflow.
func stageBucket(n uint64) int {
	if n <= stageBucketBaseNs {
		return 0
	}
	idx := bits.Len64((n - 1) / stageBucketBaseNs)
	if idx > numStageBuckets {
		return numStageBuckets
	}
	return idx
}

// StageBounds returns the bucket upper bounds in seconds, the shape
// every StageSet histogram snapshot uses.
func StageBounds() []float64 {
	bounds := make([]float64, numStageBuckets)
	for i := range bounds {
		bounds[i] = float64(uint64(stageBucketBaseNs)<<uint(i)) / 1e9
	}
	return bounds
}

// Count returns the total observations of one stage.
func (ss *StageSet) Count(s Stage) int64 {
	return ss.Histogram(s).Count
}

// Histogram merges the shards into one snapshot for the stage, in the
// shape of the telemetry registry's histograms: per-bucket (not
// cumulative) counts with upper bounds in seconds, plus sum and
// overflow. Count is derived from the bucket counts, so the snapshot
// is internally consistent (the Prometheus +Inf bucket always equals
// the count) even when Observes race the read.
func (ss *StageSet) Histogram(s Stage) telemetry.HistogramStats {
	var hs telemetry.HistogramStats
	if s < 0 || s >= NumStages {
		return hs
	}
	bounds := StageBounds()
	hs.Buckets = make([]telemetry.BucketCount, numStageBuckets)
	var sumNs int64
	for i := range ss.shards {
		sh := &ss.shards[i]
		for b := 0; b < numStageBuckets; b++ {
			hs.Buckets[b].Count += sh.counts[s][b].Load()
		}
		hs.Overflow += sh.counts[s][numStageBuckets].Load()
		sumNs += sh.sums[s].Load()
	}
	for b := range hs.Buckets {
		hs.Buckets[b].UpperBound = bounds[b]
		hs.Count += hs.Buckets[b].Count
	}
	hs.Count += hs.Overflow
	hs.Sum = float64(sumNs) / 1e9
	return hs
}
