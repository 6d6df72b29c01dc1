package reclaim

import "testing"

// The reclaim layer's own cost, next to the layer: what a structure pays
// per operation for a guarded section, and per retired node for the
// retirement and the recycled allocation that follows it. Read them at
// -cpu 1,2,4 (go test -run '^$' -bench . -cpu 1,2,4 ./reclaim/): at 1
// they are instruction cost, and what they add at 2 and 4 is what the
// layer's shared words — a neighbour's slot line, the epoch, the pending
// gauge, the domain lock of an HP scan — cost under parallel load.
// 0 allocs/op is part of the contract (TestRetireDoesNotAllocate).
//
// RunParallel's goroutines start on stacks smaller than the pool's home
// granule, where two of them can share a home slot and the benchmark
// would time the collision path; each worker therefore first grows its
// stack to the size a structure's worker runs on. miss/op says which path
// a run timed: near 0 it is the home hit, anything else is probing.

// BenchmarkSection is Enter+Exit on a pool every worker shares.
func BenchmarkSection(b *testing.B) {
	for _, dom := range deferring {
		b.Run(dom.name, func(b *testing.B) {
			pool := NewPool(dom.mk(), 1)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				deepHome(pool, 0)
				for pb.Next() {
					g := pool.Enter()
					pool.Exit(g)
				}
			})
			b.ReportMetric(float64(pool.homeMiss.Load())/float64(b.N), "miss/op")
		})
	}
}

// BenchmarkRetireRecycle is one node's round trip: taken from the
// recycler, retired inside a section, and — some sections later, on
// whichever worker drains it — reset and pooled for the next Get.
func BenchmarkRetireRecycle(b *testing.B) {
	for _, dom := range deferring {
		b.Run(dom.name, func(b *testing.B) {
			pool := NewPool(dom.mk(), 1)
			r := NewRecycler(func(n *node) { n.v = 0 })
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				deepHome(pool, 0)
				for pb.Next() {
					g := pool.Enter()
					n := r.Get()
					n.v = 1
					Retire(g, r, n)
					pool.Exit(g)
				}
			})
			b.ReportMetric(float64(pool.homeMiss.Load())/float64(b.N), "miss/op")
		})
	}
}
