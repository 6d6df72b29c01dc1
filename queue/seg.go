package queue

import (
	"sync/atomic"
	"unsafe"

	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/internal/pad"
	"github.com/cds-suite/cds/internal/pow2"
	"github.com/cds-suite/cds/reclaim"
)

// This file holds the machinery shared by the segmented ring queues (LCRQ
// and its MPSC specialisation): the fixed-size ring segment, the cursor
// encoding with its closed bit, and the enqueue / segment-advance /
// retirement protocol. The design follows the LCRQ lineage (Morrison &
// Afek, PPoPP 2013) adapted to Go's single-word atomics: instead of the
// paper's double-width CAS on (value, index) cells, each slot carries the
// per-slot publication state word already proven in the MPMC ring, and a
// dequeuer that overtakes an in-flight enqueuer abandons the slot with one
// CAS rather than waiting on it.
//
// The common case is exactly the survey's promise for FAA queues: an
// enqueue is one fetch-and-add on the tail segment's cursor plus one
// uncontended CAS publishing the slot; a dequeue is one fetch-and-add on
// the head segment's cursor plus one load/store pair consuming it. The
// hot cursors are line-padded, and — unlike the Michael–Scott queue —
// elements cost no per-node allocation and no per-node retirement: memory
// management happens at segment granularity, so a reclamation domain sees
// one Retire per segSize elements instead of one per element.

// Default and minimum segment capacities. 256 slots amortises the append
// slow path to <0.5% of enqueues while keeping a segment (~4KB for int
// slots) small enough that a mostly-empty queue wastes little; the A5
// ablation sweeps {64, 256, 1024}.
const (
	defaultSegSize = 256
	minSegSize     = 2
)

// segClosedBit seals a segment's enqueue cursor: once set, every
// fetch-and-add returns a value with the bit set and the claim fails, so
// enqueuers move on to (or append) the next segment. The bit rides in the
// cursor word itself so closing needs no extra load on the fast path.
const segClosedBit = uint64(1) << 63

// segCursor extracts the claim count from an enqueue-cursor word.
func segCursor(c uint64) uint64 { return c &^ segClosedBit }

// segIsClosed reports whether the cursor word carries the closed bit.
func segIsClosed(c uint64) bool { return c&segClosedBit != 0 }

// segClose returns the cursor word with the closed bit set.
func segClose(c uint64) uint64 { return c | segClosedBit }

// Per-slot publication states. A slot in a fresh segment is used at most
// once before the segment is retired (cursors never wrap within a
// segment), so the state machine needs no lap numbers:
//
//	empty ──publish CAS──▶ committed ──consume──▶ taken
//	  └───abandon CAS (overtaking dequeuer)──▶ abandoned
//
// The two CASes race; exactly one wins. A losing publisher re-FAAs for a
// fresh slot, a losing abandoner consumes the value after all.
const (
	slotEmpty uint32 = iota
	slotCommitted
	slotTaken
	slotAbandoned
)

// tantrumBudget is how many abandoned publications an enqueuer tolerates
// before it seals the segment (LCRQ's "tantrum") and appends a fresh one,
// bounding the retry loop and making enqueue lock-free: the append
// linearizes at a CAS that can only fail because another append succeeded.
const tantrumBudget = 8

// deqSpinPauses is how many backoff pauses a dequeuer grants an in-flight
// publisher before abandoning the slot. The publication window is two
// instructions wide, so the budget is small; it exists because abandoning
// costs both sides a retry, which matters when a publisher is merely
// descheduled for a moment.
const deqSpinPauses = 4

// segment is one fixed-size ring in the linked list. Slots are deliberately
// unpadded (the LCRQ layout): neighbouring slots share lines, but each slot
// is touched by exactly two parties ever — its publisher and its claimant —
// and the FAA cursors spread them out, so dense layout wins the cache
// behaviour that is the point of a ring segment.
type segment[T any] struct {
	enq   atomic.Uint64 // claim count | segClosedBit
	_     pad.CacheLinePad
	deq   atomic.Uint64 // dequeue claim count
	_     pad.CacheLinePad
	next  atomic.Pointer[segment[T]]
	_     pad.CacheLinePad
	slots []segSlot[T]
}

type segSlot[T any] struct {
	state atomic.Uint32
	value T
}

// resetSegment restores a retired segment to a publishable state; it runs
// under the Recycler before the segment re-enters the pool, and on the
// give-back path for segments prepared for an append that lost its CAS.
func resetSegment[T any](s *segment[T]) {
	s.enq.Store(0)
	s.deq.Store(0)
	s.next.Store(nil)
	var zero T
	for i := range s.slots {
		s.slots[i].state.Store(slotEmpty)
		s.slots[i].value = zero
	}
}

// segCounters are the always-on gauges behind SegStats. Every counter
// lives on the slow path (segment transitions, lost races), so the FAA
// fast path pays nothing for them.
type segCounters struct {
	alloc   atomic.Int64 // segments published into the list (incl. the seed)
	retired atomic.Int64 // segments handed to the reclamation domain
	freed   atomic.Int64 // retirements freed (recycled to the pool or dropped)
	closed  atomic.Int64 // tantrum seals
	enqSlow atomic.Int64 // enqueue attempts that left the FAA fast path
	deqSlow atomic.Int64 // dequeue claims lost to abandonment
}

// SegStats is a snapshot of a segmented queue's structural counters, the
// S18 gauges. Conservation holds by construction at quiescence:
//
//	SegsAllocated == SegsRecycled + SegsLive + SegsRetiredPending
//
// Under the default GC domain nothing is ever freed, so retired
// segments count as pending forever — the domain's way of saying the
// garbage collector owns them now.
type SegStats struct {
	// SegsAllocated counts segments ever published into the queue's list,
	// including the seed segment (segments prepared for an append that
	// lost its race are handed back and never counted).
	SegsAllocated int64
	// SegsRecycled counts segments the reclamation domain has freed:
	// returned to the Recycler pool when recycling is on, dropped to the
	// collector otherwise.
	SegsRecycled int64
	// SegsReused counts allocations served from the Recycler pool.
	SegsReused int64
	// SegsClosed counts tantrum seals — segments closed early because an
	// enqueuer kept losing its slot to overtaking dequeuers.
	SegsClosed int64
	// SegsLive is the linked-list population: allocated minus retired.
	SegsLive int64
	// SegsRetiredPending is retired-but-not-yet-freed — the segment-level
	// pending_garbage gauge.
	SegsRetiredPending int64
	// EnqSlowpath counts enqueue attempts that left the one-FAA fast path:
	// abandoned publications plus append rounds. The FAA fast-path
	// fraction of an N-enqueue run is (N-EnqSlowpath)/N.
	EnqSlowpath int64
	// DeqAbandoned counts dequeue claims resolved by abandoning an
	// unpublished slot (the dequeuer retried with a fresh claim).
	DeqAbandoned int64
}

// segCore is the state and protocol shared by LCRQ and MPSC: the head and
// tail segment pointers, the segment size, the reclamation wiring, and the
// multi-producer enqueue side (both variants are multi-producer; they
// differ only in the dequeue cursor discipline).
type segCore[T any] struct {
	head  atomic.Pointer[segment[T]]
	_     pad.CacheLinePad
	tail  atomic.Pointer[segment[T]]
	_     pad.CacheLinePad
	size  uint64
	mem   *reclaim.Pool
	segs  *reclaim.Recycler[segment[T]]
	count atomic.Int64 // maintained only when recycling (Len cannot traverse reused segments)
	//cdsvet:ignore padlayout count and the stats gauges are touched only on segment-boundary crossings; the pads above isolate head and tail, the per-operation hot words
	stats segCounters
}

func (q *segCore[T]) init(o options) {
	n := o.segSize
	if n <= 0 {
		n = defaultSegSize
	}
	q.size = uint64(pow2.RoundUp(n, minSegSize))
	pool := reclaim.NewPool(o.dom, 1)
	q.mem = pool
	if pool != nil && o.recycle {
		q.segs = reclaim.NewRecycler(resetSegment[T])
	}
	seed := q.newSegment()
	q.stats.alloc.Add(1)
	q.head.Store(seed)
	q.tail.Store(seed)
}

// newSegment returns a publishable segment, recycled when one is free.
func (q *segCore[T]) newSegment() *segment[T] {
	s := q.segs.Get() // a nil recycler allocates
	if s.slots == nil {
		s.slots = make([]segSlot[T], q.size)
	}
	return s
}

// enqueue is the shared multi-producer enqueue. The caller holds g's
// section. Hazard slot 0 is the only slot either operation needs — the
// advance paths compare successor pointers but never dereference them
// until the next iteration re-protects.
func (q *segCore[T]) enqueue(g reclaim.Guard, v T) {
	var b contend.Backoff
	fails := 0
	for {
		seg := reclaim.Load(g, 0, &q.tail)
		if next := seg.next.Load(); next != nil {
			// Tail lagging behind a completed append: help swing it.
			q.tail.CompareAndSwap(seg, next)
			continue
		}
		t := seg.enq.Add(1) - 1
		if !segIsClosed(t) && t < q.size {
			slot := &seg.slots[t]
			slot.value = v
			if slot.state.CompareAndSwap(slotEmpty, slotCommitted) {
				// Linearized: the publication made v visible to the
				// dequeuer holding (or about to take) this claim.
				if q.segs != nil {
					q.count.Add(1)
				}
				return
			}
			// An overtaking dequeuer abandoned the slot before we
			// published. Scrap the claim and take a fresh ticket; after
			// tantrumBudget losses, seal the segment so the retry lands
			// in a fresh ring instead of feeding the same race.
			var zero T
			slot.value = zero
			q.stats.enqSlow.Add(1)
			fails++
			if fails >= tantrumBudget {
				if !segIsClosed(seg.enq.Or(segClosedBit)) {
					q.stats.closed.Add(1)
				}
			}
			b.Pause()
			continue
		}
		// Segment exhausted or sealed: append a fresh segment carrying v.
		q.stats.enqSlow.Add(1)
		if q.appendWith(seg, v) {
			if q.segs != nil {
				q.count.Add(1)
			}
			return
		}
		b.Pause()
	}
}

// appendWith links a fresh segment whose slot 0 already holds v after seg,
// linearizing the enqueue at the successful next CAS. A lost race hands
// the prepared segment back unpublished and reports false so the caller
// retries in whichever segment won.
func (q *segCore[T]) appendWith(seg *segment[T], v T) bool {
	ns := q.newSegment()
	ns.slots[0].value = v
	ns.slots[0].state.Store(slotCommitted)
	ns.enq.Store(1)
	if seg.next.CompareAndSwap(nil, ns) {
		q.stats.alloc.Add(1)
		q.tail.CompareAndSwap(seg, ns)
		return true
	}
	if q.segs != nil {
		q.segs.Put(ns) // give-back: reset and pooled, never published
	}
	if next := seg.next.Load(); next != nil {
		q.tail.CompareAndSwap(seg, next)
	}
	return false
}

// advanceHead moves the head past a drained segment and retires it. The
// tail is helped past first: a segment is retired only after both cursors
// have moved beyond it, the invariant (inherited from the Michael–Scott
// discipline) that makes hazard revalidation against q.tail sound.
func (q *segCore[T]) advanceHead(g reclaim.Guard, seg, next *segment[T]) {
	if q.tail.Load() == seg {
		q.tail.CompareAndSwap(seg, next)
	}
	if q.head.CompareAndSwap(seg, next) {
		q.retire(g, seg)
	}
}

// retire hands a drained segment to the reclamation domain — the winning
// head CAS calls it exactly once per segment. One guard per segSize
// elements is the reclamation economy over per-node queues.
func (q *segCore[T]) retire(g reclaim.Guard, s *segment[T]) {
	q.stats.retired.Add(1)
	if g == nil {
		return // plain GC: the collector owns it now
	}
	p, f := unsafe.Pointer(s), (*segFreer[T])(q)
	if q.segs == nil {
		// Counted, not recycled: the retirement carries no reference, so
		// a parked EBR guard does not pin s and, through s.next, every
		// segment retired after it.
		g.Retire(p, nil, f)
		return
	}
	g.Retire(p, p, f)
}

// segFreer is a segCore as the reclaim.Freer of its retired segments — a
// type of its own so that Free is not promoted into LCRQ's and MPSC's
// method sets.
type segFreer[T any] segCore[T]

// Free counts the reclamation and, when recycling, pools the segment (obj
// is nil otherwise; see retire).
func (f *segFreer[T]) Free(obj unsafe.Pointer) {
	f.stats.freed.Add(1)
	if obj != nil {
		f.segs.Put((*segment[T])(obj))
	}
}

// takeSlot consumes a claimed slot: wait briefly for an in-flight
// publication, then abandon. Exactly one of {publisher, claimant} wins the
// empty-state CAS; a claimant that loses it consumes the value after all.
func takeSlot[T any](s *segSlot[T]) (v T, ok bool) {
	var b contend.Backoff
	for i := 0; ; i++ {
		switch s.state.Load() {
		case slotCommitted:
			goto take
		case slotAbandoned:
			return v, false
		}
		if i >= deqSpinPauses {
			if s.state.CompareAndSwap(slotEmpty, slotAbandoned) {
				return v, false
			}
			if s.state.Load() != slotCommitted {
				return v, false // lost to another abandonment, not a publication
			}
			goto take
		}
		b.Pause()
	}
take:
	v = s.value
	var zero T
	s.value = zero // release the reference for the GC
	s.state.Store(slotTaken)
	return v, true
}

// emptyAt reports whether a head-segment observation (deq claim count h
// loaded before enqueue-cursor word e) proves the queue empty: no
// claimable slot remains and the segment is still open, so nothing was
// ever appended after it. Loading h first makes the check conservative —
// the dequeue cursor is monotone, so the true claim count at the e load
// was at least h.
func (q *segCore[T]) emptyAt(h, e uint64) bool {
	return h >= min(segCursor(e), q.size) && !segIsClosed(e) && segCursor(e) < q.size
}

// Len counts committed-but-unconsumed slots by traversing the segment
// list. Exact only in quiescent states, like every concurrent Len in the
// module. With segment recycling enabled it is served from a counter
// instead: a traversal could follow a reused segment into the wrong
// incarnation.
func (q *segCore[T]) Len() int {
	if q.segs != nil {
		return int(q.count.Load())
	}
	n := 0
	for s := q.head.Load(); s != nil; s = s.next.Load() {
		for i := range s.slots {
			if s.slots[i].state.Load() == slotCommitted {
				n++
			}
		}
	}
	return n
}

// Empty reports whether the queue was observed empty: an O(1) peek at the
// head segment's cursors where Len would traverse every segment. Pollers
// (the pool's pre-park re-check) use it as a cheap non-emptiness probe;
// like Len it is exact only in quiescent states.
func (q *segCore[T]) Empty() bool {
	seg := q.head.Load()
	h := seg.deq.Load()
	e := seg.enq.Load()
	return h >= min(segCursor(e), q.size) && seg.next.Load() == nil
}

// Stats snapshots the structural gauges. Counters are monotone; under
// concurrency the snapshot is approximate in the usual Len sense.
func (q *segCore[T]) Stats() SegStats {
	alloc := q.stats.alloc.Load()
	retired := q.stats.retired.Load()
	freed := q.stats.freed.Load()
	return SegStats{
		SegsAllocated:      alloc,
		SegsRecycled:       freed,
		SegsReused:         q.segs.Reused(),
		SegsClosed:         q.stats.closed.Load(),
		SegsLive:           alloc - retired,
		SegsRetiredPending: retired - freed,
		EnqSlowpath:        q.stats.enqSlow.Load(),
		DeqAbandoned:       q.stats.deqSlow.Load(),
	}
}

// SegmentSize reports the (power-of-two rounded) slots per segment.
func (q *segCore[T]) SegmentSize() int { return int(q.size) }
