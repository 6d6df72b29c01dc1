// Package ring holds the one sequential core behind the locked and
// combining stack, queue and deque: a growable ring buffer. Each of those
// variants wraps a Ring in its exclusion — a sync.Mutex or a
// contend.Delegator — and maps its ends onto the ring's: a stack pushes
// and pops at the back, a queue pushes at the back and pops at the front,
// a deque's bottom is the back and its top the front.
//
// A Ring is not safe for concurrent use; the wrapper provides exclusion.
package ring

// Ring is a double-ended buffer over a power-of-two array that doubles
// when full. Every pop zeroes the slot it empties, so the ring retains
// nothing it no longer holds. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int // index of the front element
	n    int
}

// Len reports the number of elements.
func (r *Ring[T]) Len() int { return r.n }

// PushBack adds v at the back.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PopBack removes and returns the back element; ok is false if the ring
// was empty.
func (r *Ring[T]) PopBack() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	r.n--
	return r.take((r.head + r.n) & (len(r.buf) - 1)), true
}

// PopFront removes and returns the front element; ok is false if the ring
// was empty.
func (r *Ring[T]) PopFront() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	v = r.take(r.head)
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// take returns slot i and zeroes it, releasing its reference for the GC.
func (r *Ring[T]) take(i int) T {
	v := r.buf[i]
	var zero T
	r.buf[i] = zero
	return v
}

// grow doubles the capacity (8 at first), unwrapping the elements to
// start at index 0. It runs only when the ring is full, so the elements
// are buf[head:] followed by buf[:head].
func (r *Ring[T]) grow() {
	buf := make([]T, max(8, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
