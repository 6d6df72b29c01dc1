package queue

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/cds-suite/cds/internal/testprocs"
)

// TestSegCursorEncoding pins the closed-bit encoding properties the
// segmented queues rely on: round-trip (closing never perturbs the claim
// count), idempotence, and detection.
func TestSegCursorEncoding(t *testing.T) {
	cases := []uint64{
		0, 1, 2, 255, 256, 1 << 20,
		(1 << 62) - 1, 1 << 62, (1 << 63) - 1, // full 63-bit cursor range
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		cases = append(cases, rng.Uint64()&^segClosedBit)
	}
	for _, c := range cases {
		if segIsClosed(c) {
			t.Fatalf("open cursor %#x reads as closed", c)
		}
		closed := segClose(c)
		if !segIsClosed(closed) {
			t.Fatalf("segClose(%#x) not detected as closed", c)
		}
		if got := segCursor(closed); got != c {
			t.Fatalf("cursor does not round-trip through close: %#x -> %#x", c, got)
		}
		if again := segClose(closed); again != closed {
			t.Fatalf("segClose not idempotent at %#x", c)
		}
	}
}

// TestSegCursorMonotoneAcrossIncrements checks that fetch-and-add
// increments on a sealed cursor keep the closed bit and keep the claim
// count monotone right up to the top of the 63-bit range — the property
// that makes "FAA on a closed segment always fails the claim" sound no
// matter how many enqueuers pile on after the seal.
func TestSegCursorMonotoneAcrossIncrements(t *testing.T) {
	starts := []uint64{0, 1, 255, (1 << 63) - 1<<12} // incl. near the bit boundary
	for _, start := range starts {
		c := segClose(start)
		prev := segCursor(c)
		for i := 0; i < 1<<12-1; i++ {
			c++ // what a racing enq.Add(1) does to the sealed word
			if !segIsClosed(c) {
				t.Fatalf("closed bit lost after %d increments from %#x", i+1, start)
			}
			cur := segCursor(c)
			if cur != prev+1 {
				t.Fatalf("cursor not monotone: %#x then %#x", prev, cur)
			}
			prev = cur
		}
	}
}

// TestSegmentSizeRounding pins the constructor's capacity discipline.
func TestSegmentSizeRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, defaultSegSize}, {-3, defaultSegSize},
		{1, 2}, {2, 2}, {3, 4}, {64, 64}, {65, 128}, {1000, 1024},
	} {
		q := NewLCRQ[int](WithSegmentSize(tc.in))
		if got := q.SegmentSize(); got != tc.want {
			t.Fatalf("SegmentSize(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestMPMCLapSlotDiscipline drives the bounded ring's lap/slot sequence
// math across uint64 cursor wraparound: with both cursors fast-forwarded
// to just below 2^64 (a lap boundary, since capacity divides 2^64), the
// slot extraction pos&mask must stay in range, the per-slot sequence must
// advance by exactly one capacity per lap, and FIFO order must survive
// the wrap.
func TestMPMCLapSlotDiscipline(t *testing.T) {
	q := NewMPMC[int](4)
	n := uint64(q.Cap())
	start := -(2 * n) // two laps before the wrap; a multiple of n
	q.enqueue.Store(start)
	q.dequeue.Store(start)
	for i := range q.buf {
		q.buf[i].sequence.Store(start + uint64(i))
	}
	// Four laps of half-full operation straddle the wraparound.
	next := 0
	for lap := 0; lap < 4; lap++ {
		for i := 0; i < int(n)/2; i++ {
			if !q.TryEnqueue(lap*int(n) + i) {
				t.Fatalf("lap %d: TryEnqueue full at i=%d", lap, i)
			}
		}
		if got := q.Len(); got != int(n)/2 {
			t.Fatalf("lap %d: Len = %d, want %d", lap, got, n/2)
		}
		for i := 0; i < int(n)/2; i++ {
			v, ok := q.TryDequeue()
			if !ok {
				t.Fatalf("lap %d: TryDequeue empty at i=%d", lap, i)
			}
			if v != lap*int(n)+i {
				t.Fatalf("FIFO broken across wraparound: got %d, want %d", v, lap*int(n)+i)
			}
			next++
		}
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("queue should be empty after matched laps")
	}
	// Sequence words themselves must have marched exactly one capacity per
	// enqueue/dequeue cycle: 4 half-full laps push 8 pairs through a
	// 4-slot ring, so every slot cycled twice and carries start + i + 2n.
	for i := range q.buf {
		want := start + uint64(i) + 2*n
		if got := q.buf[i].sequence.Load(); got != want {
			t.Fatalf("slot %d sequence = %#x, want %#x", i, got, want)
		}
	}
}

// TestMPMCBackoffGauges pins the satellite fix observably: under a
// producer/consumer pile-up on a tiny ring the paced-retry counter must
// register (repeat CAS misses and waits on an in-flight peer's slot both
// take the backoff path), and the counters must stay non-negative.
func TestMPMCBackoffGauges(t *testing.T) {
	testprocs.AtLeast(t, 4)
	q := NewMPMC[int](2) // tiny ring maximises ticket collisions
	// A collision needs a worker descheduled between its ticket load and
	// its CAS, which on one core is up to the OS: pile up until one lands.
	for s := q.Stats(); s.EnqCASMisses+s.DeqCASMisses+s.Backoffs == 0; s = q.Stats() {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20_000; i++ {
					if !q.TryEnqueue(i) {
						q.TryDequeue()
					}
				}
			}()
		}
		wg.Wait()
	}
	if s := q.Stats(); s.EnqCASMisses < 0 || s.DeqCASMisses < 0 || s.Backoffs < 0 {
		t.Fatalf("negative gauge: %+v", s)
	}
}
