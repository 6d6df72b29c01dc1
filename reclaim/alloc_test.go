//go:build !race

package reclaim

import "testing"

// TestRetireDoesNotAllocate pins the closure-free retire path: a
// structure's steady-state cycle — open a section, take a node from the
// recycler, retire it, close the section — allocates nothing, on either
// deferring domain. (A closure per retirement is one allocation per
// cycle; a scan set built per HP scan, a map per 64.) The race runtime
// allocates on its own account, hence the build tag.
func TestRetireDoesNotAllocate(t *testing.T) {
	for _, dom := range deferring {
		pool := NewPool(dom.mk(), 1)
		r := NewRecycler(func(n *node) { n.v = 0 })
		cycle := func() {
			g := pool.Enter()
			n := r.Get()
			n.v = 1
			Retire(g, r, n)
			pool.Exit(g)
		}
		// AllocsPerRun truncates its average to a whole number, so a run
		// is a batch of cycles and the division is done here. The first,
		// unmeasured run fills the bags and the recycler's pool.
		const batch = 1000
		perBatch := testing.AllocsPerRun(20, func() {
			for i := 0; i < batch; i++ {
				cycle()
			}
		})
		if avg := perBatch / batch; avg >= 0.05 {
			t.Errorf("%s: %.3f allocations per Retire+Get cycle, want < 0.05", dom.name, avg)
		}
	}
}
