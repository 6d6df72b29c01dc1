package queue

import (
	"github.com/cds-suite/cds/reclaim"
)

// LCRQ is an unbounded MPMC queue in the LCRQ lineage (Morrison & Afek,
// PPoPP 2013): a linked list of fixed-size ring segments where the common
// case costs one fetch-and-add on a segment cursor plus one slot
// publication — no per-element allocation and no CAS-contended hot
// pointer, which is why FAA queues beat Michael–Scott-style linked queues
// by multiples at high thread counts (see the lock-free survey and the
// S18 bench family). Go has no double-width CAS, so slots carry the
// per-slot publication state word proven in the bounded MPMC ring
// instead of the paper's (value, index) cells; a dequeuer that overtakes
// an in-flight enqueuer abandons the slot with one CAS and both sides
// re-FAA.
//
// When a segment fills — or an enqueuer loses tantrumBudget publications
// to overtaking dequeuers — the segment's cursor is sealed with a closed
// bit and a fresh segment is appended, the enqueued value pre-committed
// in its slot 0. Drained segments are unlinked by dequeuers and retired
// whole through the reclaim domain: one guard operation and one Retire
// per SegmentSize elements, orders of magnitude fewer than per-node MS.
// WithRecycling additionally pools retired segments for reuse.
//
// Linearization points: Enqueue at its successful slot-publication CAS
// (or, on the append path, at the successful next-pointer CAS that links
// the pre-filled segment); TryDequeue at the fetch-and-add that claims a
// slot an enqueuer published or will publish; an empty TryDequeue at its
// load of the head segment's enqueue cursor, taken after the dequeue
// cursor so the no-claimable-slot observation is conservative.
//
// The zero value is NOT usable; construct with NewLCRQ. See
// WithSegmentSize for the capacity knob and Stats for the structural
// gauges. Progress: lock-free (a stalled enqueuer can force at most
// tantrumBudget retries before the segment seals; a sealed segment's
// append can only fail because another append succeeded).
type LCRQ[T any] struct {
	segCore[T]
}

// NewLCRQ returns an empty segmented queue. See WithReclaim,
// WithRecycling, and WithSegmentSize.
func NewLCRQ[T any](opts ...Option) *LCRQ[T] {
	q := &LCRQ[T]{}
	q.init(buildOptions(opts))
	return q
}

// Enqueue adds v at the tail.
func (q *LCRQ[T]) Enqueue(v T) {
	g := q.mem.Enter()
	q.enqueue(g, v)
	q.mem.Exit(g)
}

// TryDequeue removes and returns the head element; ok is false if the
// queue was observed empty.
func (q *LCRQ[T]) TryDequeue() (v T, ok bool) {
	g := q.mem.Enter()
	v, ok = q.dequeue(g)
	q.mem.Exit(g)
	return v, ok
}

// dequeue is the shared multi-consumer dequeue. The caller holds g's
// section.
func (q *LCRQ[T]) dequeue(g reclaim.Guard) (v T, ok bool) {
	for {
		seg := reclaim.Load(g, 0, &q.head)
		// Read deq before enq: the dequeue cursor is monotone, so if the
		// enq load then shows no slot beyond h, there was an instant
		// during the enq load at which every published slot was claimed.
		h := seg.deq.Load()
		e := seg.enq.Load()
		if h >= min(segCursor(e), q.size) {
			if q.emptyAt(h, e) {
				return v, false // open and drained: the queue is empty
			}
			// Sealed (closed or full) and drained: advance past it — or,
			// if the winning append has not linked its segment yet,
			// nothing is published anywhere and empty is still correct.
			next := seg.next.Load()
			if next == nil {
				return v, false
			}
			q.advanceHead(g, seg, next)
			continue
		}
		t := seg.deq.Add(1) - 1
		if t >= q.size {
			continue // overshot a drained segment; re-examine from the top
		}
		if val, taken := takeSlot(&seg.slots[t]); taken {
			if q.segs != nil {
				q.count.Add(-1)
			}
			return val, true
		}
		// We overtook the enqueuer holding ticket t and abandoned its
		// slot; it will re-FAA, and so do we.
		q.stats.deqSlow.Add(1)
	}
}
