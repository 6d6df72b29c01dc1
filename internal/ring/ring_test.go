package ring

import (
	"testing"
	"testing/quick"
)

// check compares r against the slice model front-to-back and requires
// every slot outside the live window to be zero: a popped slot that kept
// its value would pin it for the GC.
func check(t *testing.T, r *Ring[int], model []int) bool {
	t.Helper()
	if r.Len() != len(model) {
		t.Errorf("Len = %d, model holds %d", r.Len(), len(model))
		return false
	}
	live := make([]bool, len(r.buf))
	for i, want := range model {
		j := (r.head + i) & (len(r.buf) - 1)
		live[j] = true
		if r.buf[j] != want {
			t.Errorf("element %d = %d, want %d", i, r.buf[j], want)
			return false
		}
	}
	for j, v := range r.buf {
		if !live[j] && v != 0 {
			t.Errorf("dead slot %d still holds %d", j, v)
			return false
		}
	}
	return true
}

// TestRingMatchesSliceModel runs random PushBack/PopBack/PopFront
// sequences against a plain slice. Pushes outnumber pops two to one, so
// the ring grows, and the pops from the front leave head > 0 when it does:
// growth of a wrapped ring is the one path that copies two pieces.
func TestRingMatchesSliceModel(t *testing.T) {
	wrappedGrowths := 0
	f := func(ops []uint8) bool {
		var r Ring[int]
		var model []int
		next := 1 // values are non-zero so that a zeroed slot is visible
		for _, op := range ops {
			var v int
			var ok bool
			switch op % 4 {
			case 0, 1:
				if r.n == len(r.buf) && r.head > 0 {
					wrappedGrowths++
				}
				r.PushBack(next)
				model = append(model, next)
				next++
				ok = true
			case 2:
				v, ok = r.PopBack()
				if len(model) > 0 {
					if v != model[len(model)-1] {
						t.Errorf("PopBack = %d, want %d", v, model[len(model)-1])
						return false
					}
					model = model[:len(model)-1]
				}
			case 3:
				v, ok = r.PopFront()
				if len(model) > 0 {
					if v != model[0] {
						t.Errorf("PopFront = %d, want %d", v, model[0])
						return false
					}
					model = model[1:]
				}
			}
			if !ok && (v != 0 || r.Len() != 0) {
				t.Errorf("failed pop returned (%d, false) with Len %d", v, r.Len())
				return false
			}
			if !check(t, &r, model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if wrappedGrowths == 0 {
		t.Fatal("no sequence grew a wrapped ring; the two-piece copy went untested")
	}
}

// TestRingGrowsWrapped pins the wrapped growth case directly: a full ring
// whose front sits mid-array doubles without reordering anything.
func TestRingGrowsWrapped(t *testing.T) {
	var r Ring[int]
	var model []int
	for i := 1; i <= 8; i++ {
		r.PushBack(i)
		model = append(model, i)
	}
	for range 3 {
		r.PopFront()
		model = model[1:]
	}
	for i := 9; i <= 11; i++ {
		r.PushBack(i)
		model = append(model, i)
	}
	if r.head != 3 || r.n != len(r.buf) {
		t.Fatalf("setup: head %d, len %d, cap %d; want a full ring with head 3", r.head, r.n, len(r.buf))
	}
	r.PushBack(12)
	model = append(model, 12)
	if len(r.buf) != 16 {
		t.Fatalf("cap after growth = %d, want 16", len(r.buf))
	}
	check(t, &r, model)
}
