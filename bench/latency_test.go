package bench

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/cds-suite/cds/internal/xrand"
)

// TestHistogramExactSmallValues: below 2^histSubBits every value has its
// own bucket, so percentiles are exact.
func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 31; v++ {
		h.Record(v)
	}
	if got := h.Percentile(50); got != 16 {
		t.Fatalf("p50 of 1..31 = %d, want 16", got)
	}
	if got := h.Percentile(100); got != 31 {
		t.Fatalf("p100 of 1..31 = %d, want 31", got)
	}
	if h.Min() != 1 || h.Max() != 31 {
		t.Fatalf("min/max = %d/%d, want 1/31", h.Min(), h.Max())
	}
}

// TestHistogramPercentilesKnownDistribution checks the log-bucketed
// percentiles against a known uniform distribution: quantisation error is
// bounded by the sub-bucket resolution (1/2^histSubBits ≈ 3.1%).
func TestHistogramPercentilesKnownDistribution(t *testing.T) {
	h := NewHistogram()
	const n = 100000
	for v := int64(1); v <= n; v++ {
		h.Record(v)
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{50, 50000},
		{90, 90000},
		{99, 99000},
		{99.9, 99900},
	} {
		got := h.Percentile(tc.p)
		if relErr := math.Abs(float64(got)-tc.want) / tc.want; relErr > 0.04 {
			t.Errorf("p%.1f = %d, want %.0f ±4%% (err %.2f%%)", tc.p, got, tc.want, 100*relErr)
		}
	}
}

// TestHistogramMerge: merging per-worker histograms must yield the same
// percentiles as recording everything into one.
func TestHistogramMerge(t *testing.T) {
	whole, a, b := NewHistogram(), NewHistogram(), NewHistogram()
	for v := int64(1); v <= 10000; v++ {
		whole.Record(v)
		if v%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	merged := NewHistogram()
	merged.Merge(a)
	merged.Merge(b)
	if merged.Count() != whole.Count() {
		t.Fatalf("merged count = %d, want %d", merged.Count(), whole.Count())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged min/max = %d/%d, want %d/%d", merged.Min(), merged.Max(), whole.Min(), whole.Max())
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		if m, w := merged.Percentile(p), whole.Percentile(p); m != w {
			t.Errorf("p%v: merged %d != whole %d", p, m, w)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram()
	if h.Percentile(50) != 0 || h.Count() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	h.Record(0) // coarse-clock sample: clamped to 1ns, never lost
	h.Record(-5)
	if h.Count() != 2 || h.Min() != 1 || h.Percentile(99) != 1 {
		t.Fatalf("clamped samples mishandled: count=%d min=%d p99=%d", h.Count(), h.Min(), h.Percentile(99))
	}
	// A huge value must neither panic nor land outside the bucket table.
	big := int64(1) << 62
	h.Record(big)
	if got := h.Percentile(100); got != big {
		t.Fatalf("p100 after huge sample = %d, want %d (max-clamped)", got, big)
	}
}

// TestBucketRoundTrip: every bucket's representative value maps back to
// the same bucket, and indices are monotone in the value.
func TestBucketRoundTrip(t *testing.T) {
	for idx := 0; idx < histBuckets; idx++ {
		v := bucketValue(idx)
		if v > 0 && bucketIndex(v) != idx {
			t.Fatalf("bucketIndex(bucketValue(%d)) = %d", idx, bucketIndex(v))
		}
	}
	prev := -1
	for _, v := range []int64{1, 2, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1 << 40, 1 << 62} {
		idx := bucketIndex(v)
		if idx <= prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = idx
	}
}

// TestRunSamplesOneOpPerBlock: Run times exactly one operation in every
// block of SampleEvery (a short last block included), at the position
// samplePos draws — deterministic, and not a fixed stride. The operations at
// the predicted positions spin for a while and all others return at once,
// so every sample is long exactly when Run timed the predicted calls.
func TestRunSamplesOneOpPerBlock(t *testing.T) {
	const workers, n, spin = 3, 1000, 50 * time.Microsecond
	blocks := (n + SampleEvery - 1) / SampleEvery
	want := make([]map[int]bool, workers)
	strided := true
	for w := range want {
		want[w] = map[int]bool{}
		for b := 0; b < blocks; b++ {
			blockLen := min(SampleEvery, n-b*SampleEvery)
			pos := samplePos(w, b, blockLen)
			if pos != samplePos(w, b, blockLen) {
				t.Fatalf("samplePos(%d, %d) is not deterministic", w, b)
			}
			if pos < 0 || pos >= blockLen {
				t.Fatalf("samplePos(%d, %d, %d) = %d, outside the block", w, b, blockLen, pos)
			}
			if pos != samplePos(w, 0, SampleEvery) {
				strided = false
			}
			want[w][b*SampleEvery+pos] = true
		}
	}
	if strided {
		t.Fatal("every block samples the same position: a fixed stride aliases with the op mixes")
	}
	calls := make([]int, workers)
	res := Run(workers, n, func(w int) func(int) {
		return func(i int) {
			calls[w]++
			if want[w][i] {
				for t0 := time.Now(); time.Since(t0) < spin; {
				}
			}
		}
	})
	if res.Ops != workers*n {
		t.Fatalf("Ops = %d, want %d", res.Ops, workers*n)
	}
	for w, c := range calls {
		if c != n {
			t.Fatalf("worker %d ran %d ops, want %d", w, c, n)
		}
	}
	if got := res.Latency.Count(); got != uint64(workers*blocks) {
		t.Fatalf("merged histogram holds %d samples, want workers × ⌈n/%d⌉ = %d", got, SampleEvery, workers*blocks)
	}
	if res.Latency.Min() < spin.Nanoseconds() {
		t.Fatalf("a sample of %dns: Run timed a call samplePos did not pick", res.Latency.Min())
	}
}

// TestRunCountsWorkersThatExitEarly: a closure may end its worker with
// runtime.Goexit; Ops then counts the calls that returned, and the
// abandoned call leaves no sample.
func TestRunCountsWorkersThatExitEarly(t *testing.T) {
	res := Run(2, 1000, func(w int) func(int) {
		return func(i int) {
			if w == 0 && i == 100 {
				runtime.Goexit()
			}
		}
	})
	if res.Ops != 100+1000 {
		t.Fatalf("Ops = %d, want 1100", res.Ops)
	}
	// Worker 1 samples all 16 blocks; worker 0 its first block and, if the
	// draw falls before call 100, its second.
	want := uint64(16 + 1)
	if samplePos(0, 1, SampleEvery) < 100-SampleEvery {
		want++
	}
	if got := res.Latency.Count(); got != want {
		t.Fatalf("samples = %d, want %d", got, want)
	}
}

// TestBucketGeometryProperty pins the precedence-sensitive midpoint
// expression in bucketValue: representative values must grow strictly
// monotonically across the whole bucket range, and a value→bucket→midpoint
// round trip must stay within the documented 1/2^histSubBits relative
// error (values below 2^histSubBits are exact).
func TestBucketGeometryProperty(t *testing.T) {
	// Midpoints monotone over every bucket.
	prev := bucketValue(0)
	for idx := 1; idx < histBuckets; idx++ {
		v := bucketValue(idx)
		if v <= prev {
			t.Fatalf("bucketValue not monotone: bucketValue(%d)=%d <= bucketValue(%d)=%d",
				idx, v, idx-1, prev)
		}
		prev = v
	}

	// Midpoint round-trip error bound, swept exhaustively through the
	// small range and pseudo-randomly through every octave above it.
	check := func(v int64) {
		t.Helper()
		m := bucketValue(bucketIndex(v))
		if v < 1<<histSubBits {
			if m != v {
				t.Fatalf("small value %d not exact: midpoint %d", v, m)
			}
			return
		}
		diff := m - v
		if diff < 0 {
			diff = -diff
		}
		// |midpoint - v| / v <= 1/2^histSubBits, in integers.
		if diff<<histSubBits > v {
			t.Fatalf("midpoint error too large at %d: midpoint %d, |diff| %d > %d/2^%d",
				v, m, diff, v, histSubBits)
		}
	}
	for v := int64(0); v < 1<<14; v++ {
		check(v)
	}
	rng := uint64(42)
	for msb := histSubBits; msb < 63; msb++ {
		base := int64(1) << msb
		check(base)
		check(base + base/2)
		check(base + base - 1) // top of the octave
		for i := 0; i < 64; i++ {
			r := xrand.SplitMix64(&rng)
			check(base + int64(r%uint64(base)))
		}
	}
}
