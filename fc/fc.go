package fc

import (
	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/contend"
)

// Option configures a combining container at construction.
type Option func(*config)

type config struct {
	backend contend.Backend
}

// WithBackend selects the combining backend the container delegates
// through: flat combining (the default), CC-Synch, or DSM-Synch. See
// contend.Backend for when each wins.
func WithBackend(b contend.Backend) Option {
	return func(c *config) { c.backend = b }
}

func buildConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Queue is a FIFO queue built from a plain slice ring via a combining
// backend — the combining counterpart to the queues in package queue.
type Queue[T any] struct {
	c contend.Delegator[*seqQueue[T]]
}

type seqQueue[T any] struct {
	buf   []T
	head  int
	count int
}

var _ cds.Queue[int] = (*Queue[int])(nil)

// NewQueue returns an empty combining queue, flat-combining by default;
// see WithBackend.
func NewQueue[T any](opts ...Option) *Queue[T] {
	cfg := buildConfig(opts)
	return &Queue[T]{c: contend.NewDelegator(cfg.backend, &seqQueue[T]{})}
}

// Stats reports the combining-backend gauges (batches, ops, handoffs).
func (q *Queue[T]) Stats() contend.DelegatorStats { return q.c.Stats() }

// Enqueue adds v at the tail.
func (q *Queue[T]) Enqueue(v T) {
	q.c.Do(func(s *seqQueue[T]) { s.push(v) })
}

// TryDequeue removes and returns the head element; ok is false if the
// queue was empty.
func (q *Queue[T]) TryDequeue() (v T, ok bool) {
	q.c.Do(func(s *seqQueue[T]) { v, ok = s.pop() })
	return v, ok
}

// Len reports the number of elements.
func (q *Queue[T]) Len() int {
	var n int
	q.c.Do(func(s *seqQueue[T]) { n = s.count })
	return n
}

func (s *seqQueue[T]) push(v T) {
	if s.count == len(s.buf) {
		newCap := 2 * len(s.buf)
		if newCap == 0 {
			newCap = 8
		}
		buf := make([]T, newCap)
		for i := 0; i < s.count; i++ {
			buf[i] = s.buf[(s.head+i)%len(s.buf)]
		}
		s.buf = buf
		s.head = 0
	}
	s.buf[(s.head+s.count)%len(s.buf)] = v
	s.count++
}

func (s *seqQueue[T]) pop() (v T, ok bool) {
	if s.count == 0 {
		return v, false
	}
	v = s.buf[s.head]
	var zero T
	s.buf[s.head] = zero
	s.head = (s.head + 1) % len(s.buf)
	s.count--
	return v, true
}

// Stack is a LIFO stack via a combining backend.
type Stack[T any] struct {
	c contend.Delegator[*seqStack[T]]
}

type seqStack[T any] struct {
	items []T
}

var _ cds.Stack[int] = (*Stack[int])(nil)

// NewStack returns an empty combining stack, flat-combining by default;
// see WithBackend.
func NewStack[T any](opts ...Option) *Stack[T] {
	cfg := buildConfig(opts)
	return &Stack[T]{c: contend.NewDelegator(cfg.backend, &seqStack[T]{})}
}

// Stats reports the combining-backend gauges (batches, ops, handoffs).
func (s *Stack[T]) Stats() contend.DelegatorStats { return s.c.Stats() }

// Push adds v to the top of the stack.
func (s *Stack[T]) Push(v T) {
	s.c.Do(func(q *seqStack[T]) { q.items = append(q.items, v) })
}

// TryPop removes and returns the top element; ok is false if the stack was
// empty.
func (s *Stack[T]) TryPop() (v T, ok bool) {
	s.c.Do(func(q *seqStack[T]) {
		if len(q.items) == 0 {
			return
		}
		v = q.items[len(q.items)-1]
		var zero T
		q.items[len(q.items)-1] = zero
		q.items = q.items[:len(q.items)-1]
		ok = true
	})
	return v, ok
}

// Len reports the number of elements.
func (s *Stack[T]) Len() int {
	var n int
	s.c.Do(func(q *seqStack[T]) { n = len(q.items) })
	return n
}
