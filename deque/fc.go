package deque

import (
	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/internal/ring"
)

var _ cds.Deque[int] = (*FC[int])(nil)

// FC is a combining deque: the ring.Ring behind Mutex made concurrent
// through a contend.Delegator backend (flat combining by default; CC-Synch
// or DSM-Synch via contend.WithBackend). Unlike Chase-Lev it has no owner
// restriction — any goroutine may push or pop at either end — which makes
// it the symmetric-deque baseline the work-stealing design is traded
// against: Chase-Lev buys an uncontended owner fast path by restricting
// who may touch the bottom, the combining deque keeps full generality
// and batches all ends through one combiner.
//
// Progress: blocking in the small (a stalled combiner delays its batch) but
// the combiner role is held only for a bounded batch.
type FC[T any] struct {
	c contend.Delegator[*ring.Ring[T]]
}

// NewFC returns an empty combining deque.
func NewFC[T any](opts ...contend.Option) *FC[T] {
	return &FC[T]{c: contend.NewDelegator(&ring.Ring[T]{}, opts...)}
}

// Stats reports the combining-backend gauges (batches, ops, handoffs).
func (d *FC[T]) Stats() contend.DelegatorStats { return d.c.Stats() }

// PushBottom adds v at the bottom end.
func (d *FC[T]) PushBottom(v T) {
	d.c.Do(func(r *ring.Ring[T]) { r.PushBack(v) })
}

// TryPopBottom removes from the bottom end.
func (d *FC[T]) TryPopBottom() (v T, ok bool) {
	d.c.Do(func(r *ring.Ring[T]) { v, ok = r.PopBack() })
	return v, ok
}

// TryPopTop removes from the top end.
func (d *FC[T]) TryPopTop() (v T, ok bool) {
	d.c.Do(func(r *ring.Ring[T]) { v, ok = r.PopFront() })
	return v, ok
}

// Len reports the number of elements.
func (d *FC[T]) Len() int {
	var n int
	d.c.Do(func(r *ring.Ring[T]) { n = r.Len() })
	return n
}
