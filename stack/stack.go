package stack

import (
	"sync"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/internal/ring"
)

// Compile-time interface compliance checks.
var (
	_ cds.Stack[int] = (*Mutex[int])(nil)
	_ cds.Stack[int] = (*Treiber[int])(nil)
	_ cds.Stack[int] = (*Elimination[int])(nil)
)

// Mutex is the coarse-locked baseline stack: a ring.Ring guarded by one
// sync.Mutex, pushed and popped at the back. Simple, exact, and serial —
// the reference point for every scalability figure.
//
// The zero value is an empty stack. Progress: blocking.
type Mutex[T any] struct {
	mu sync.Mutex
	r  ring.Ring[T]
}

// NewMutex returns an empty coarse-locked stack.
func NewMutex[T any]() *Mutex[T] {
	return &Mutex[T]{}
}

// Push adds v to the top of the stack.
func (s *Mutex[T]) Push(v T) {
	s.mu.Lock()
	s.r.PushBack(v)
	s.mu.Unlock()
}

// TryPop removes and returns the top element; ok is false if the stack was
// empty.
func (s *Mutex[T]) TryPop() (v T, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.PopBack()
}

// Len reports the number of elements.
func (s *Mutex[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Len()
}
