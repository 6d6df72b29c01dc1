package queue

import "github.com/cds-suite/cds/contend"

// elimEnqAttempts bounds how many direct CAS attempts an Elimination
// enqueue loses before offering its value to the handoff array. One failed
// attempt already signals tail contention; a couple more keep the direct
// path dominant when contention is transient.
const elimEnqAttempts = 3

// Elimination is a Michael–Scott queue with FIFO elimination in the style
// of Moir, Nussbaum, Shalev & Shavit (SPAA 2005): a contended enqueue
// publishes its value to a contend.HandoffArray, and a dequeue that finds
// the queue empty takes a pending offer directly — the pair cancels
// without either operation touching the queue's head or tail.
//
// Unlike a stack, a queue admits elimination only in the empty state: a
// dequeue must return the oldest element, so pairing it with a *newer*
// concurrent enqueue is legal only if nothing sits between them — i.e. the
// queue is empty at the moment the pair linearizes. The handoff's
// validation hook enforces exactly that: after claiming an offer, the
// dequeuer re-verifies that the head it observed empty is unchanged and
// still has no successor. With default GC reclamation nodes are never
// recycled, so an unchanged head pointer with a nil next proves the queue
// was continuously empty between the two observations; WithReclaim keeps
// the same proof intact because the head is guard-protected across the
// validation — a protected node cannot be retired, much less reused, so
// pointer identity still certifies continuity. A failed validation aborts
// the handoff and the enqueuer falls back to the queue.
//
// The elimination path shines on the symmetric high-contention mix where
// the queue hovers near empty — precisely where the plain MS queue's head
// and tail CASes collapse onto the same cache lines (scenario S-contend).
//
// The zero value is NOT usable; construct with NewElimination.
// Progress: lock-free (every path bounds its handoff visit and falls back
// to the MS CAS loops).
type Elimination[T any] struct {
	q   MS[T]
	arr *contend.HandoffArray[T]
}

// NewElimination returns an empty elimination-backed Michael–Scott queue
// with the given handoff-array width and per-offer spin budget. Values
// <= 0 select the contend defaults (width 8, 128 spins). WithReclaim and
// WithRecycling configure the backing queue's memory reclamation; values
// eliminated through the handoff array never publish a node.
func NewElimination[T any](width, spins int, opts ...Option) *Elimination[T] {
	q := &Elimination[T]{arr: contend.NewHandoffArray[T](width, spins)}
	q.q.init(buildOptions(opts))
	return q
}

// Enqueue adds v at the tail, or hands it directly to a dequeuer that
// caught the queue empty.
func (q *Elimination[T]) Enqueue(v T) {
	n := q.q.nodes.Get()
	n.value = v
	for {
		g := q.q.mem.Enter()
		linked := q.q.tryEnqueue(g, n, elimEnqAttempts)
		q.q.mem.Exit(g) // do not stay pinned across the handoff spin
		if linked {
			return
		}
		// Contention: back off into the handoff array. A successful give
		// means an empty-queue dequeuer consumed v; the pair is linearized
		// at its validation instant.
		if q.arr.TryGive(v) {
			q.q.nodes.Put(n) // never published; straight back to the pool
			return
		}
	}
}

// TryDequeue removes and returns the head element; ok is false if the
// queue was observed empty and no enqueue could be eliminated against.
func (q *Elimination[T]) TryDequeue() (v T, ok bool) {
	g := q.q.mem.Enter()
	v, ok, head := q.q.tryDequeue(g)
	if head != nil {
		// Empty. Take a pending enqueue if the queue provably stays empty
		// through the handoff: head is still protected in slot 0, so it
		// cannot have been reused, and head==head ∧ head.next==nil at
		// validation time rules out any interleaved enqueue. A failed
		// take leaves the dequeue linearized empty at tryDequeue's loads.
		v, ok = q.arr.TryTake(func() bool {
			return q.q.head.Load() == head && head.next.Load() == nil
		})
	}
	q.q.mem.Exit(g)
	return v, ok
}

// Len counts elements by traversing from the head (see MS.Len caveats);
// values in flight through the handoff array are not counted, matching
// their linearization (an eliminated pair never makes the queue non-empty).
func (q *Elimination[T]) Len() int {
	return q.q.Len()
}
