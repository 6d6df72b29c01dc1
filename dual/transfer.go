package dual

import (
	"context"
	"runtime"
	"sync/atomic"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/internal/park"
	"github.com/cds-suite/cds/reclaim"
)

// All three dual structures satisfy the root blocking-queue contract.
var (
	_ cds.BlockingQueue[int] = (*MSQueue[int])(nil)
	_ cds.BlockingQueue[int] = (*Sync[int])(nil)
	_ cds.BlockingQueue[int] = (*Bounded[int])(nil)
)

// transfer.go holds the dual transfer list: one Michael–Scott-style linked
// queue whose nodes carry either data or reservations, generalising the
// Scherer–Scott dualqueue the way LinkedTransferQueue generalises it in
// java.util.concurrent. The invariant is that between head and tail the
// list is homogeneous — all data or all reservations — because an
// operation appends only when the tail matches its own mode and otherwise
// *matches*: it claims the oldest node of the opposite mode at the head.
//
// A node's item pointer is its state machine, and the claim CAS on it is
// every operation's linearization point:
//
//	reservation:  nil ──fulfil──▶ &value        (taker gets value)
//	              nil ──cancel──▶ cancelled     (taker got ctx error)
//	data:         &value ──take──▶ taken        (sync putter released)
//	              &value ──cancel─▶ cancelled   (sync putter got ctx error)
//
// Head advances (and the old dummy is retired) only past nodes whose item
// has left its initial state, so a claimed or cancelled node is unlinked
// by whoever passes next — matchers help remove each other's leftovers.

// awaitSpins is the spin budget a waiter burns on its node's item before
// allocating a permit and parking. Rendezvous waits are usually shorter
// than a park/unpark round trip, which is the whole point of the budget.
const awaitSpins = 128

// xitem boxes a transferred value. The padding byte forces a non-zero
// size so every allocation — including the per-queue taken/cancelled
// sentinels — has a distinct address even when T itself is zero-size
// (Go gives all zero-size allocations one address, which would collapse
// the item state machine for types like struct{}).
type xitem[T any] struct {
	v T
	_ byte
}

type node[T any] struct {
	isData bool
	// sync marks a data node whose putter waits for consumption (the
	// synchronous queue); claiming it counts as a fulfilment.
	sync   bool
	item   atomic.Pointer[xitem[T]]
	waiter atomic.Pointer[park.Permit]
	next   atomic.Pointer[node[T]]
}

// wake releases the node's parked waiter, if one has been installed. It
// must only be called after the item CAS that settles the node: the
// install/recheck order in await guarantees a waiter that misses the
// permit load here has not parked yet and will see the settled item.
func (n *node[T]) wake() {
	if p := n.waiter.Load(); p != nil {
		p.Unpark()
	}
}

// stats counts the slow-path events behind a structure's Stats snapshot.
type stats struct {
	reservations atomic.Int64
	fulfilled    atomic.Int64
	parks        atomic.Int64
	cancelled    atomic.Int64
	handoffs     atomic.Int64
}

// Stats is a point-in-time snapshot of a blocking structure's
// waiter-management counters. The S15 benchmark scenarios surface it as
// record gauges.
type Stats struct {
	// Reservations counts operations that installed a waiting node (a
	// Take that found no data, or a synchronous Put that found no taker).
	Reservations int64
	// Fulfilled counts reservations completed by a later inverse
	// operation through the transfer list.
	Fulfilled int64
	// Parks counts waits that actually blocked on a permit; the
	// difference against Reservations is the spin-resolved fraction.
	Parks int64
	// Cancelled counts reservations withdrawn by context cancellation.
	Cancelled int64
	// Handoffs counts fast-path rendezvous through the handoff array
	// (Sync only; zero elsewhere).
	Handoffs int64
}

func (s *stats) snapshot() Stats {
	return Stats{
		Reservations: s.reservations.Load(),
		Fulfilled:    s.fulfilled.Load(),
		Parks:        s.parks.Load(),
		Cancelled:    s.cancelled.Load(),
		Handoffs:     s.handoffs.Load(),
	}
}

// xfer is the shared dual transfer list.
type xfer[T any] struct {
	head atomic.Pointer[node[T]]
	tail atomic.Pointer[node[T]]
	// cancelled and taken are per-queue sentinel addresses, distinct from
	// every real item pointer (and from nil, the unfulfilled state).
	cancelled *xitem[T]
	taken     *xitem[T]
	mem       *reclaim.Pool
	st        stats
}

func newXfer[T any](dom reclaim.Domain) *xfer[T] {
	q := &xfer[T]{cancelled: new(xitem[T]), taken: new(xitem[T]), mem: reclaim.NewPool(dom, 2)}
	dummy := &node[T]{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// pinNext publishes next in slot 1 and re-checks that h is still the
// head. Nodes are never recycled, so an unchanged head proves the pair
// (h, next) was reachable — and the publication in time — for the whole
// window (no ABA on the head pointer without reuse).
func (q *xfer[T]) pinNext(g reclaim.Guard, h, next *node[T]) bool {
	if g != nil && g.Protects() {
		g.Protect(1, next)
	}
	return q.head.Load() == h
}

// advanceHead swings the head past next and retires the old dummy. Any
// matcher may call it on a settled node; only the winner retires.
func (q *xfer[T]) advanceHead(g reclaim.Guard, h, next *node[T]) {
	if q.head.CompareAndSwap(h, next) {
		reclaim.Retire(g, nil, h)
	}
}

// put transfers v into the queue. With wait=false it returns as soon as
// the value is enqueued or handed to a reservation (the total Enqueue of
// the dual queue); with wait=true it blocks until a taker has consumed
// the value (the synchronous-queue Put), returning ctx's error if
// cancelled first.
func (q *xfer[T]) put(ctx context.Context, v T, wait bool) error {
	pv := &xitem[T]{v: v}
	var n *node[T]
	var b contend.Backoff
	g := q.mem.Enter()
	defer func() { q.mem.Exit(g) }()
	for {
		h := reclaim.Load(g, 0, &q.head)
		t := q.tail.Load()
		if h == t || t.isData {
			// Empty or data mode: append a data node.
			next := t.next.Load()
			if t != q.tail.Load() {
				continue
			}
			if next != nil {
				q.tail.CompareAndSwap(t, next) // help a lagging tail
				continue
			}
			if n == nil {
				n = &node[T]{isData: true, sync: wait}
				n.item.Store(pv)
			}
			if t.next.CompareAndSwap(nil, n) {
				q.tail.CompareAndSwap(t, n)
				if !wait {
					return nil
				}
				q.st.reservations.Add(1)
				// Never hold a reclamation section while parked: a
				// pinned epoch would stall the whole domain.
				q.mem.Exit(g)
				g = nil
				_, err := q.await(ctx, n, pv)
				return err
			}
			b.Pause()
			continue
		}
		// Reservation mode: fulfil the oldest waiting taker.
		next := h.next.Load()
		if !q.pinNext(g, h, next) {
			continue
		}
		if next == nil {
			continue // stale view of a just-emptied queue
		}
		if next.item.Load() == nil && next.item.CompareAndSwap(nil, pv) {
			q.advanceHead(g, h, next)
			q.st.fulfilled.Add(1)
			next.wake()
			return nil
		}
		// Cancelled (or concurrently fulfilled) reservation: unlink and
		// retry with the next one.
		q.advanceHead(g, h, next)
		b.Pause()
	}
}

// take transfers a value out of the queue, blocking on a reservation node
// if none is ready. It returns ctx's error if cancelled before a value
// arrives.
func (q *xfer[T]) take(ctx context.Context) (v T, err error) {
	var r *node[T]
	var b contend.Backoff
	g := q.mem.Enter()
	defer func() { q.mem.Exit(g) }()
	for {
		h := reclaim.Load(g, 0, &q.head)
		t := q.tail.Load()
		if h == t || !t.isData {
			// Empty or reservation mode: append our reservation.
			next := t.next.Load()
			if t != q.tail.Load() {
				continue
			}
			if next != nil {
				q.tail.CompareAndSwap(t, next)
				continue
			}
			if r == nil {
				r = &node[T]{}
			}
			if t.next.CompareAndSwap(nil, r) {
				q.tail.CompareAndSwap(t, r)
				q.st.reservations.Add(1)
				q.mem.Exit(g)
				g = nil
				pv, err := q.await(ctx, r, nil)
				if err != nil {
					return v, err
				}
				return pv.v, nil
			}
			b.Pause()
			continue
		}
		// Data mode: claim the oldest value.
		next := h.next.Load()
		if !q.pinNext(g, h, next) {
			continue
		}
		if next == nil {
			continue
		}
		pv := next.item.Load()
		if pv == q.taken || pv == q.cancelled {
			q.advanceHead(g, h, next) // help unlink a settled node
			continue
		}
		if next.item.CompareAndSwap(pv, q.taken) {
			q.advanceHead(g, h, next)
			if next.sync {
				q.st.fulfilled.Add(1)
				next.wake() // release the waiting synchronous putter
			}
			return pv.v, nil
		}
		b.Pause()
	}
}

// tryPut fulfils a waiting reservation with v without ever appending; it
// reports false when no taker is waiting. This is the dual queue's
// nonblocking "offer to a waiter" and the synchronous queue's
// waiter-priority fast path.
func (q *xfer[T]) tryPut(v T) bool {
	pv := &xitem[T]{v: v}
	g := q.mem.Enter()
	defer q.mem.Exit(g)
	for {
		h := reclaim.Load(g, 0, &q.head)
		t := q.tail.Load()
		if h == t || t.isData {
			return false
		}
		next := h.next.Load()
		if !q.pinNext(g, h, next) {
			continue
		}
		if next == nil {
			continue
		}
		if next.item.Load() == nil && next.item.CompareAndSwap(nil, pv) {
			q.advanceHead(g, h, next)
			q.st.fulfilled.Add(1)
			next.wake()
			return true
		}
		q.advanceHead(g, h, next)
	}
}

// tryTake claims a ready value without ever appending a reservation; ok
// is false when no data is waiting.
func (q *xfer[T]) tryTake() (v T, ok bool) {
	g := q.mem.Enter()
	defer q.mem.Exit(g)
	for {
		h := reclaim.Load(g, 0, &q.head)
		t := q.tail.Load()
		if h == t || !t.isData {
			return v, false
		}
		next := h.next.Load()
		if !q.pinNext(g, h, next) {
			continue
		}
		if next == nil {
			continue
		}
		pv := next.item.Load()
		if pv == q.taken || pv == q.cancelled {
			q.advanceHead(g, h, next)
			continue
		}
		if next.item.CompareAndSwap(pv, q.taken) {
			q.advanceHead(g, h, next)
			if next.sync {
				q.st.fulfilled.Add(1)
				next.wake()
			}
			return pv.v, true
		}
	}
}

// await blocks until n's item leaves expect — fulfilment for a
// reservation (expect nil), consumption for a synchronous put (expect the
// value pointer) — spinning awaitSpins times before parking. On ctx
// expiry it withdraws the node by CASing item from expect to the
// cancelled sentinel; losing that CAS means the operation completed
// concurrently, which wins over the cancellation.
func (q *xfer[T]) await(ctx context.Context, n *node[T], expect *xitem[T]) (*xitem[T], error) {
	for i := 0; i < awaitSpins; i++ {
		if it := n.item.Load(); it != expect {
			return it, nil
		}
		runtime.Gosched()
	}
	p := park.New()
	n.waiter.Store(p)
	for {
		// Re-check after installing the permit: a fulfiller that loaded
		// the waiter slot before our store has already settled the item.
		if it := n.item.Load(); it != expect {
			return it, nil
		}
		q.st.parks.Add(1)
		if err := p.Park(ctx); err == nil {
			continue // token implies a settled item; loop exits above
		} else if n.item.CompareAndSwap(expect, q.cancelled) {
			q.st.cancelled.Add(1)
			return nil, err
		} else {
			// Settled between ctx expiry and our withdrawal: completed.
			return n.item.Load(), nil
		}
	}
}

// len counts ready data nodes by traversing from the head; reservations
// (and settled nodes awaiting unlink) count zero. Exact only in quiescent
// states, like every Len in this module.
func (q *xfer[T]) len() int {
	n := 0
	for nd := q.head.Load().next.Load(); nd != nil; nd = nd.next.Load() {
		if nd.isData {
			if it := nd.item.Load(); it != nil && it != q.taken && it != q.cancelled {
				n++
			}
		}
	}
	return n
}
