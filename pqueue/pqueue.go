package pqueue

import (
	"sync"

	cds "github.com/cds-suite/cds"
)

// Compile-time interface compliance checks.
var (
	_ cds.PriorityQueue[int] = (*Heap[int])(nil)
	_ cds.PriorityQueue[int] = (*SkipList[int])(nil)
)

// Heap is a coarse-locked binary min-heap. less defines the priority
// order: less(a, b) means a has higher priority (comes out first).
//
// Progress: blocking.
type Heap[T any] struct {
	mu sync.Mutex
	h  minHeap[T]
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{h: minHeap[T]{less: less}}
}

// Insert adds v.
func (h *Heap[T]) Insert(v T) {
	h.mu.Lock()
	h.h.insert(v)
	h.mu.Unlock()
}

// TryDeleteMin removes and returns the minimum element; ok is false if the
// heap was empty.
func (h *Heap[T]) TryDeleteMin() (v T, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.deleteMin()
}

// Len reports the number of elements.
func (h *Heap[T]) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.h.items)
}

// minHeap is the sequential binary min-heap behind both Heap (under its
// mutex) and FC (under a contend.Delegator); it has no exclusion of its
// own.
type minHeap[T any] struct {
	less  func(a, b T) bool
	items []T
}

func (h *minHeap[T]) insert(v T) {
	h.items = append(h.items, v)
	h.siftUp(len(h.items) - 1)
}

func (h *minHeap[T]) deleteMin() (v T, ok bool) {
	n := len(h.items)
	if n == 0 {
		return v, false
	}
	v = h.items[0]
	h.items[0] = h.items[n-1]
	var zero T
	h.items[n-1] = zero // release reference for the GC
	h.items = h.items[:n-1]
	h.siftDown(0)
	return v, true
}

// siftUp restores the heap property from index i toward the root.
func (h *minHeap[T]) siftUp(i int) {
	items, less := h.items, h.less
	for i > 0 {
		parent := (i - 1) / 2
		if !less(items[i], items[parent]) {
			return
		}
		items[i], items[parent] = items[parent], items[i]
		i = parent
	}
}

// siftDown restores the heap property from index i toward the leaves.
func (h *minHeap[T]) siftDown(i int) {
	items, less := h.items, h.less
	n := len(items)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && less(items[left], items[smallest]) {
			smallest = left
		}
		if right < n && less(items[right], items[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		items[i], items[smallest] = items[smallest], items[i]
		i = smallest
	}
}
