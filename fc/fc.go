package fc

import (
	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/internal/ring"
)

// Queue is a FIFO queue via a combining backend: the ring.Ring behind
// queue.Mutex, enqueued at the back and dequeued at the front — the
// combining counterpart to the queues in package queue.
type Queue[T any] struct {
	c contend.Delegator[*ring.Ring[T]]
}

var _ cds.Queue[int] = (*Queue[int])(nil)

// NewQueue returns an empty combining queue, flat-combining unless
// contend.WithBackend says otherwise.
func NewQueue[T any](opts ...contend.Option) *Queue[T] {
	return &Queue[T]{c: contend.NewDelegator(&ring.Ring[T]{}, opts...)}
}

// Stats reports the combining-backend gauges (batches, ops, handoffs).
func (q *Queue[T]) Stats() contend.DelegatorStats { return q.c.Stats() }

// Enqueue adds v at the tail.
func (q *Queue[T]) Enqueue(v T) {
	q.c.Do(func(r *ring.Ring[T]) { r.PushBack(v) })
}

// TryDequeue removes and returns the head element; ok is false if the
// queue was empty.
func (q *Queue[T]) TryDequeue() (v T, ok bool) {
	q.c.Do(func(r *ring.Ring[T]) { v, ok = r.PopFront() })
	return v, ok
}

// Len reports the number of elements.
func (q *Queue[T]) Len() int {
	var n int
	q.c.Do(func(r *ring.Ring[T]) { n = r.Len() })
	return n
}

// Stack is a LIFO stack via a combining backend: the ring.Ring behind
// stack.Mutex, pushed and popped at the back.
type Stack[T any] struct {
	c contend.Delegator[*ring.Ring[T]]
}

var _ cds.Stack[int] = (*Stack[int])(nil)

// NewStack returns an empty combining stack, flat-combining unless
// contend.WithBackend says otherwise.
func NewStack[T any](opts ...contend.Option) *Stack[T] {
	return &Stack[T]{c: contend.NewDelegator(&ring.Ring[T]{}, opts...)}
}

// Stats reports the combining-backend gauges (batches, ops, handoffs).
func (s *Stack[T]) Stats() contend.DelegatorStats { return s.c.Stats() }

// Push adds v to the top of the stack.
func (s *Stack[T]) Push(v T) {
	s.c.Do(func(r *ring.Ring[T]) { r.PushBack(v) })
}

// TryPop removes and returns the top element; ok is false if the stack was
// empty.
func (s *Stack[T]) TryPop() (v T, ok bool) {
	s.c.Do(func(r *ring.Ring[T]) { v, ok = r.PopBack() })
	return v, ok
}

// Len reports the number of elements.
func (s *Stack[T]) Len() int {
	var n int
	s.c.Do(func(r *ring.Ring[T]) { n = r.Len() })
	return n
}
