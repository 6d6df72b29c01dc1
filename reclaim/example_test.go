package reclaim_test

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"github.com/cds-suite/cds/reclaim"
)

// The canonical bracket: open a section on the structure's pool,
// load-protect a shared pointer, and retire an unlinked object, whose
// Freer runs only once no guard can reach it (a structure calls
// reclaim.Retire with its Recycler; a func goes through the FreeFunc
// adaptor). Over reclaim.NewGC() (or no domain) pool and g are nil and
// the same code is a plain load and a dropped node.
func Example() {
	type node struct{ v int }

	d := reclaim.NewEBR()
	d.SetAdvanceInterval(1) // reclaim eagerly so the example terminates

	var head atomic.Pointer[node]
	head.Store(&node{v: 1})

	pool := reclaim.NewPool(d, 1)
	g := pool.Enter()
	n := reclaim.Load(g, 0, &head) // safe to dereference inside the section
	fmt.Println("read:", n.v)
	pool.Exit(g)

	// A writer unlinks the node and retires it.
	old := head.Swap(&node{v: 2})
	g = pool.Enter()
	g.Retire(unsafe.Pointer(old), nil, reclaim.FreeFunc(func() { fmt.Println("freed:", old.v) }))
	pool.Exit(g)

	// Drive retirement traffic until the grace period passes.
	g = pool.Enter()
	for i := 0; i < 8 && d.Reclaimed() == 0; i++ {
		reclaim.Retire(g, nil, &node{})
	}
	pool.Exit(g)

	fmt.Println("reclaimed:", d.Reclaimed() > 0)
	// Output:
	// read: 1
	// freed: 1
	// reclaimed: true
}
