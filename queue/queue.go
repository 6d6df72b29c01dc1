package queue

import (
	"sync"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/internal/ring"
)

// Compile-time interface compliance checks.
var (
	_ cds.Queue[int]        = (*Mutex[int])(nil)
	_ cds.Queue[int]        = (*TwoLock[int])(nil)
	_ cds.Queue[int]        = (*MS[int])(nil)
	_ cds.Queue[int]        = (*Elimination[int])(nil)
	_ cds.Queue[int]        = (*LCRQ[int])(nil)
	_ cds.Queue[int]        = (*MPSC[int])(nil)
	_ cds.BoundedQueue[int] = (*MPMC[int])(nil)
	_ cds.BoundedQueue[int] = (*SPSC[int])(nil)
)

// Mutex is the coarse-locked baseline queue: a ring.Ring guarded by one
// sync.Mutex, enqueued at the back and dequeued at the front. Enqueuers
// and dequeuers serialise on the same lock.
//
// The zero value is an empty queue. Progress: blocking.
type Mutex[T any] struct {
	mu sync.Mutex
	r  ring.Ring[T]
}

// NewMutex returns an empty coarse-locked queue.
func NewMutex[T any]() *Mutex[T] {
	return &Mutex[T]{}
}

// Enqueue adds v at the tail.
func (q *Mutex[T]) Enqueue(v T) {
	q.mu.Lock()
	q.r.PushBack(v)
	q.mu.Unlock()
}

// TryDequeue removes and returns the head element; ok is false if the queue
// was empty.
func (q *Mutex[T]) TryDequeue() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.r.PopFront()
}

// Len reports the number of elements.
func (q *Mutex[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.r.Len()
}
