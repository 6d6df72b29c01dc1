package deque

import (
	"sync"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/internal/ring"
)

// Compile-time interface compliance checks.
var (
	_ cds.Deque[int] = (*Mutex[int])(nil)
	_ cds.Deque[int] = (*ChaseLev[int])(nil)
)

// Mutex is the coarse-locked deque baseline: a ring.Ring guarded by one
// sync.Mutex, its bottom at the ring's back and its top at the front.
//
// The zero value is an empty deque. Progress: blocking.
type Mutex[T any] struct {
	mu sync.Mutex
	r  ring.Ring[T]
}

// NewMutex returns an empty coarse-locked deque.
func NewMutex[T any]() *Mutex[T] {
	return &Mutex[T]{}
}

// PushBottom adds v at the bottom (owner end).
func (d *Mutex[T]) PushBottom(v T) {
	d.mu.Lock()
	d.r.PushBack(v)
	d.mu.Unlock()
}

// TryPopBottom removes from the bottom (owner end).
func (d *Mutex[T]) TryPopBottom() (v T, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.r.PopBack()
}

// TryPopTop removes from the top (steal end).
func (d *Mutex[T]) TryPopTop() (v T, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.r.PopFront()
}

// Len reports the number of elements.
func (d *Mutex[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.r.Len()
}
