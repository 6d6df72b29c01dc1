package main

import "math/bits"

// A histogram counts latency samples in log-linear buckets: values
// below 2^histSubBits are counted exactly, and every octave above is
// cut into 2^histSubBits equal buckets, so a bucket is at most 0.79 %
// of its value wide — a tenth of the 10 % latency bounds.
type histogram struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 42 // 2^42 ns ≈ 73 min; larger samples land in the last bucket
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(v>>(exp-histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + sub
}

// histBounds returns bucket i's lowest value and its width.
func histBounds(i int) (lo, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	exp := i/histSub + histSubBits - 1
	sub := int64(i % histSub)
	return (histSub + sub) << (exp - histSubBits), 1 << (exp - histSubBits)
}

func (h *histogram) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q ≤ 1), placing the samples of a
// bucket evenly across it, so the result moves continuously with the
// data and two runs do not report the same bucket edge.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return float64(lo) + (rank-cum)/float64(c)*float64(width)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return float64(lo + width)
}
