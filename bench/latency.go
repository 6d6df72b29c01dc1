package bench

import (
	"math"
	"math/bits"
)

// Latency histogram parameters. Values are bucketed by octave (position of
// the highest set bit) with 2^histSubBits linear sub-buckets per octave,
// the HdrHistogram layout: relative quantisation error is bounded by
// 1/2^histSubBits (~3% at 5 sub-bucket bits), constant-time insert, and a
// fixed, mergeable footprint — exactly what per-worker sampling on the
// benchmark hot path can afford.
const (
	histSubBits = 5
	histSubMask = (1 << histSubBits) - 1
	// histBuckets covers every non-negative int64 nanosecond value:
	// values below 2^histSubBits map directly, and each of the remaining
	// 63-histSubBits octaves contributes 2^histSubBits sub-buckets.
	histBuckets = (1 << histSubBits) + (63-histSubBits)<<histSubBits
)

// Histogram is a log-bucketed latency histogram over nanosecond values.
// It is not safe for concurrent use: each benchmark worker records into its
// own instance and Run merges them after the measured region.
type Histogram struct {
	counts [histBuckets]uint64
	total  uint64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: -1}
}

// newHists returns one empty histogram per worker; mergeHists folds them.
func newHists(workers int) []*Histogram {
	hists := make([]*Histogram, workers)
	for i := range hists {
		hists[i] = NewHistogram()
	}
	return hists
}

func mergeHists(hists []*Histogram) *Histogram {
	merged := NewHistogram()
	for _, h := range hists {
		merged.Merge(h)
	}
	return merged
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	msb := 63 - bits.LeadingZeros64(uint64(v))
	shift := msb - histSubBits
	return (shift+1)<<histSubBits + int((v>>shift)&histSubMask)
}

// bucketValue returns the representative (midpoint) value of a bucket.
func bucketValue(idx int) int64 {
	if idx < 1<<histSubBits {
		return int64(idx)
	}
	shift := idx>>histSubBits - 1
	base := int64(1) << (shift + histSubBits)
	low := base + int64(idx&histSubMask)<<shift
	return low + int64(1)<<shift/2
}

// Record adds one sample. Non-positive samples (possible on coarse clocks)
// are clamped to 1ns so that percentiles of real work never read as zero.
func (h *Histogram) Record(ns int64) {
	if ns < 1 {
		ns = 1
	}
	h.counts[bucketIndex(ns)]++
	h.total++
	if h.min < 0 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	if h.min < 0 || (other.min >= 0 && other.min < h.min) {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Min returns the smallest recorded sample, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.min < 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample, or 0 if empty.
func (h *Histogram) Max() int64 { return h.max }

// Percentile returns the latency in nanoseconds at percentile p in (0,
// 100]: the representative value of the bucket holding the sample with
// rank ceil(p/100 * count). Returns 0 on an empty histogram. The answer is
// exact below 2^histSubBits ns and within 1/2^histSubBits (~3%) relative
// error above, clamped to the observed min/max.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
