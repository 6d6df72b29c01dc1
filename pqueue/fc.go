package pqueue

import (
	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/contend"
)

var _ cds.PriorityQueue[int] = (*FC[int])(nil)

// FC is a combining priority queue: the binary heap behind Heap made
// concurrent through a contend.Delegator backend (flat combining by
// default; CC-Synch or DSM-Synch via contend.WithBackend). A priority
// queue is combining's natural habitat — every DeleteMin serialises on the
// minimum anyway, so instead of p threads taking turns pulling the heap's
// cache lines through a lock, one combiner applies a whole batch of
// inserts and deleteMins against a heap that stays resident in its cache.
// The Synch framework (Kallimanis) reports exactly this shape winning for
// heaps at scale, with the CC-Synch backends ahead at high core counts.
//
// less defines the priority order: less(a, b) means a comes out first.
//
// Progress: blocking in the small (a stalled combiner delays its batch) but
// the combiner role is held only for a bounded batch.
type FC[T any] struct {
	c contend.Delegator[*minHeap[T]]
}

// NewFC returns an empty combining priority queue ordered by less.
func NewFC[T any](less func(a, b T) bool, opts ...contend.Option) *FC[T] {
	return &FC[T]{c: contend.NewDelegator(&minHeap[T]{less: less}, opts...)}
}

// Stats reports the combining-backend gauges (batches, ops, handoffs).
func (q *FC[T]) Stats() contend.DelegatorStats { return q.c.Stats() }

// Insert adds v.
func (q *FC[T]) Insert(v T) {
	q.c.Do(func(h *minHeap[T]) { h.insert(v) })
}

// TryDeleteMin removes and returns the minimum element; ok is false if the
// queue was empty.
func (q *FC[T]) TryDeleteMin() (v T, ok bool) {
	q.c.Do(func(h *minHeap[T]) { v, ok = h.deleteMin() })
	return v, ok
}

// Len reports the number of elements.
func (q *FC[T]) Len() int {
	var n int
	q.c.Do(func(h *minHeap[T]) { n = len(h.items) })
	return n
}
