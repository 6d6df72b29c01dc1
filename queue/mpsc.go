package queue

import (
	"github.com/cds-suite/cds/reclaim"
)

// MPSC is the single-consumer specialisation of LCRQ: enqueues are the
// same multi-producer FAA-plus-publication protocol, but the sole
// consumer owns the dequeue cursor outright, so a dequeue claims its slot
// with a plain load/store pair — no fetch-and-add, no CAS — and advances
// the head with CASes that cannot fail. The consumer can still overtake
// an in-flight producer (the enqueue cursor moves before the slot
// publishes); it grants the same brief grace as LCRQ, then abandons the
// slot so neither side waits unboundedly.
//
// All dequeue-side calls — TryDequeue, Len under recycling — must come
// from one goroutine at a time; enqueues may come from any number of
// goroutines. This is the shape of a work-stealing pool's wake-one
// consumer, a single-reader event loop, or an actor mailbox. For the
// pool's injection lane — where every worker dequeues — the pool wires
// the full LCRQ instead; see pool.WithInjectionLane.
//
// Linearization points match LCRQ except the dequeue claim, which
// linearizes at the consumer's cursor store. The zero value is NOT
// usable; construct with NewMPSC. Progress: enqueue lock-free, dequeue
// wait-free apart from the bounded publication grace.
type MPSC[T any] struct {
	segCore[T]
}

// NewMPSC returns an empty single-consumer segmented queue. See
// WithReclaim, WithRecycling, and WithSegmentSize.
func NewMPSC[T any](opts ...Option) *MPSC[T] {
	q := &MPSC[T]{}
	q.init(buildOptions(opts))
	return q
}

// Enqueue adds v at the tail. Safe for any number of concurrent callers.
func (q *MPSC[T]) Enqueue(v T) {
	g := q.mem.Enter()
	q.enqueue(g, v)
	q.mem.Exit(g)
}

// TryDequeue removes and returns the head element; ok is false if the
// queue was observed empty. Single consumer only.
func (q *MPSC[T]) TryDequeue() (v T, ok bool) {
	g := q.mem.Enter()
	v, ok = q.dequeue(g)
	q.mem.Exit(g)
	return v, ok
}

// dequeue is the single-consumer dequeue: h is owned by this goroutine,
// so the claim is a plain store and no other dequeuer can overshoot or
// abandon ahead of us.
func (q *MPSC[T]) dequeue(g reclaim.Guard) (v T, ok bool) {
	for {
		seg := reclaim.Load(g, 0, &q.head)
		h := seg.deq.Load() // sole writer: ourselves
		e := seg.enq.Load()
		if h >= min(segCursor(e), q.size) {
			if q.emptyAt(h, e) {
				return v, false
			}
			next := seg.next.Load()
			if next == nil {
				return v, false // sealed, append not linked yet
			}
			q.advanceHead(g, seg, next)
			continue
		}
		slot := &seg.slots[h]
		seg.deq.Store(h + 1)
		if val, taken := takeSlot(slot); taken {
			if q.segs != nil {
				q.count.Add(-1)
			}
			return val, true
		}
		q.stats.deqSlow.Add(1)
	}
}
