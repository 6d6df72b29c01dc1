//go:build !race

package deque

import "testing"

// TestMutexTopChurnDoesNotAllocate pins the ring under a steal-end
// stream: pushing at the bottom and popping at the top keeps the length
// fixed, so once the ring is big enough nothing may allocate. (A slice
// deque that pops the top with items[1:] loses a slot of capacity per pop
// and reallocates every len-many cycles.) The race runtime allocates on
// its own account, hence the build tag.
func TestMutexTopChurnDoesNotAllocate(t *testing.T) {
	d := NewMutex[int]()
	for i := range 64 {
		d.PushBottom(i)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := range 128 {
			d.PushBottom(i)
			d.TryPopTop()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per 128 PushBottom+TryPopTop cycles at length 64, want 0", allocs)
	}
}
