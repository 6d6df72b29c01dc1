package queue

import (
	"sync/atomic"

	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/reclaim"
)

// MS is the Michael & Scott lock-free queue (PODC 1996), the algorithm
// behind java.util.concurrent's ConcurrentLinkedQueue: a linked list with a
// dummy node where enqueue CASes the tail node's next pointer and then
// swings the tail, and dequeue CASes the head forward. The tail is allowed
// to lag by one node; every operation helps complete a stalled enqueue it
// observes (the "helping" technique that makes the algorithm lock-free
// rather than merely non-blocking in the common case).
//
// Linearization points: Enqueue at its successful next-pointer CAS;
// TryDequeue at its successful head CAS; empty TryDequeue at the load of
// head.next == nil while head == tail.
//
// ABA safety: by default nodes are never recycled (see Treiber stack note);
// the GC guarantees a pointer compares equal only to the same allocation.
// Constructed WithReclaim, retired dummies go through the domain instead,
// following Michael's published hazard discipline under HP: the head (or
// tail) is published in slot 0 and revalidated, and a dequeue publishes
// next in slot 1 then re-checks that head is still the head — next can
// only be retired after it has itself become the head and been dequeued,
// so an unchanged head proves the publication was in time. That ordering
// is what makes WithRecycling's node reuse sound.
//
// The zero value is NOT usable; construct with NewMS. Progress: lock-free.
type MS[T any] struct {
	head  atomic.Pointer[msNode[T]]
	tail  atomic.Pointer[msNode[T]]
	mem   *reclaim.Pool
	nodes *reclaim.Recycler[msNode[T]]
	size  atomic.Int64 // maintained only when recycling (Len cannot traverse reused nodes)
}

type msNode[T any] struct {
	value T
	next  atomic.Pointer[msNode[T]]
}

// NewMS returns an empty Michael–Scott queue. See WithReclaim and
// WithRecycling for the memory-reclamation options.
func NewMS[T any](opts ...Option) *MS[T] {
	q := &MS[T]{}
	q.init(buildOptions(opts))
	return q
}

func (q *MS[T]) init(o options) {
	dummy := &msNode[T]{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	pool := reclaim.NewPool(o.dom, 2)
	q.mem = pool
	if pool != nil && o.recycle {
		q.nodes = reclaim.NewRecycler(func(n *msNode[T]) {
			var zero T
			n.value = zero
			n.next.Store(nil)
		})
	}
}

// Enqueue adds v at the tail.
func (q *MS[T]) Enqueue(v T) {
	n := q.nodes.Get()
	n.value = v
	g := q.mem.Enter()
	var b contend.Backoff
	for !q.tryEnqueue(g, n, 1) {
		b.Pause()
	}
	q.mem.Exit(g)
}

// tryEnqueue runs the enqueue protocol until n is linked (true) or the
// linking CAS has lost attempts times (false). Helping a lagging tail and
// re-reading a moved one are not attempts: each proves another enqueue
// progressed. The tail is load-protected in slot 0 before its next
// pointer is touched. The caller holds g's section.
func (q *MS[T]) tryEnqueue(g reclaim.Guard, n *msNode[T], attempts int) bool {
	for attempts > 0 {
		tail := reclaim.Load(g, 0, &q.tail)
		next := tail.next.Load()
		if tail != q.tail.Load() {
			continue // tail moved under us; re-read
		}
		if next != nil {
			// Tail is lagging: help swing it, then retry.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, n) {
			// Linearized. Swinging the tail may fail if someone helped.
			q.tail.CompareAndSwap(tail, n)
			if q.nodes != nil {
				q.size.Add(1)
			}
			return true
		}
		attempts--
	}
	return false
}

// TryDequeue removes and returns the head element; ok is false if the queue
// was observed empty.
func (q *MS[T]) TryDequeue() (v T, ok bool) {
	g := q.mem.Enter()
	v, ok, _ = q.tryDequeue(g)
	q.mem.Exit(g)
	return v, ok
}

// tryDequeue is the dequeue protocol: head in slot 0, next in slot 1, with
// the head re-check that orders the slot-1 publication before any possible
// retirement of next. When the queue is empty it also returns the head it
// observed empty, still protected in slot 0, for Elimination's handoff
// validation. The caller holds g's section.
func (q *MS[T]) tryDequeue(g reclaim.Guard) (v T, ok bool, empty *msNode[T]) {
	hp := g != nil && g.Protects()
	var b contend.Backoff
	for {
		head := reclaim.Load(g, 0, &q.head)
		tail := q.tail.Load()
		next := head.next.Load()
		if hp {
			g.Protect(1, next)
		}
		// next is retired only after the head has moved past it; an
		// unchanged head therefore proves our publication preceded any
		// retirement, so the retirer's scan will see slot 1.
		if head != q.head.Load() {
			continue
		}
		if head == tail {
			if next == nil {
				return v, false, head // empty
			}
			// Tail lagging behind a completed enqueue: help it.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		// Read the value before the CAS; if the CAS fails the value is
		// simply discarded. Values are written once, before publication,
		// so this read can never be torn.
		val := next.value
		if q.head.CompareAndSwap(head, next) {
			if q.nodes != nil {
				q.size.Add(-1)
			}
			// The old dummy is unreachable from the queue; retire it.
			reclaim.Retire(g, q.nodes, head)
			return val, true, nil
		}
		b.Pause()
	}
}

// Len counts elements by traversing from the head. The count is exact only
// in quiescent states; under concurrency it is best-effort. With node
// recycling enabled it is served from a counter instead: a traversal
// could follow a reused node into the wrong incarnation.
func (q *MS[T]) Len() int {
	if q.nodes != nil {
		return int(q.size.Load())
	}
	n := 0
	for node := q.head.Load().next.Load(); node != nil; node = node.next.Load() {
		n++
	}
	return n
}

// Empty reports whether the queue was observed empty: an O(1) peek at
// the dummy head's successor, where Len would traverse every node.
// Pollers (the pool's pre-park re-check) use it as a cheap non-emptiness
// probe; like Len it is exact only in quiescent states.
func (q *MS[T]) Empty() bool {
	return q.head.Load().next.Load() == nil
}
