package reclaim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

type node struct {
	v     int
	freed atomic.Bool
}

// retireFunc retires n into g with a plain func as its Freer.
func retireFunc(g Guard, n *node, f func()) {
	g.Retire(unsafe.Pointer(n), nil, FreeFunc(f))
}

func TestGCDomainIsInert(t *testing.T) {
	d := NewGC()
	if d.Deferred() {
		t.Fatal("GC domain reports Deferred")
	}
	if d.Name() != "gc" {
		t.Fatalf("Name = %q", d.Name())
	}
	g := d.NewGuard(2)
	g.Enter()
	called := false
	retireFunc(g, &node{}, func() { called = true })
	g.Exit()
	if called {
		t.Fatal("GC guard ran a free callback")
	}
	if d.Reclaimed() != 0 || d.Pending() != 0 {
		t.Fatalf("GC gauges = (%d, %d), want (0, 0)", d.Reclaimed(), d.Pending())
	}
	// An explicit GC domain is the default: neither gets a pool, so both
	// run the structures on the nil guard.
	if NewPool(d, 2) != nil || NewPool(nil, 2) != nil {
		t.Fatal("NewPool returned a pool for a non-deferring domain")
	}
}

// TestNilSeam pins the one place "this structure runs on plain GC" is
// decided: a nil pool hands out the nil guard, and every helper a
// structure calls with it degrades to the unprotected operation.
func TestNilSeam(t *testing.T) {
	var p *Pool
	g := p.Enter()
	if g != nil {
		t.Fatalf("nil pool Enter = %v, want nil guard", g)
	}
	p.Exit(g) // must not touch the nil pool

	var src atomic.Pointer[node]
	if got := Load(g, 0, &src); got != nil {
		t.Fatalf("Load(nil guard) of empty source = %p", got)
	}
	n := &node{v: 7}
	src.Store(n)
	if got := Load(g, 1, &src); got != n || got != src.Load() {
		t.Fatalf("Load(nil guard) = %p, want plain load %p", got, n)
	}

	resets := 0
	r := NewRecycler(func(*node) { resets++ })
	Retire(g, r, n)
	Retire[node](g, nil, n)
	if fresh := r.Get(); fresh == n || resets != 0 || r.Reused() != 0 {
		t.Fatalf("Retire(nil guard) recycled the node (resets %d, reused %d)", resets, r.Reused())
	}
}

func TestEBRRetireWaitsForSectionExit(t *testing.T) {
	d := NewEBR()
	d.SetAdvanceInterval(1)
	reader := d.NewGuard(0)
	writer := d.NewGuard(0)
	defer reader.Release()
	defer writer.Release()

	obj := &node{}
	reader.Enter()
	retireFunc(writer, obj, func() { obj.freed.Store(true) })
	// Retire with interval 1 tries hard to advance; the pinned reader
	// must hold it back.
	for i := 0; i < 10; i++ {
		retireFunc(writer, &node{}, func() {})
	}
	if obj.freed.Load() {
		t.Fatal("object freed while a guard was inside its section")
	}
	if d.Pending() == 0 {
		t.Fatal("pending gauge never rose")
	}
	reader.Exit()
	for i := 0; i < 10; i++ {
		retireFunc(writer, &node{}, func() {})
	}
	if !obj.freed.Load() {
		t.Fatal("object never freed after the section exited")
	}
	if d.Reclaimed() == 0 {
		t.Fatal("reclaimed gauge never rose")
	}
}

func TestHPLoadProtectsAgainstScan(t *testing.T) {
	d := NewHP()
	d.SetScanThreshold(1)
	reader := d.NewGuard(1)
	writer := d.NewGuard(1)
	defer reader.Release()
	defer writer.Release()

	obj := &node{v: 7}
	var shared atomic.Pointer[node]
	shared.Store(obj)

	reader.Enter()
	got := Load(reader, 0, &shared)
	if got != obj {
		t.Fatalf("Load = %p, want %p", got, obj)
	}

	// Unlink and retire; threshold 1 scans on every retire.
	shared.Store(nil)
	retireFunc(writer, obj, func() { obj.freed.Store(true) })
	for i := 0; i < 5; i++ {
		retireFunc(writer, &node{}, func() {})
	}
	if obj.freed.Load() {
		t.Fatal("protected object freed under scan pressure")
	}

	// Exit clears the slot; the next scan may free it.
	reader.Exit()
	for i := 0; i < 3; i++ {
		retireFunc(writer, &node{}, func() {})
	}
	if !obj.freed.Load() {
		t.Fatal("object never freed after slot cleared")
	}
}

func TestLoadRevalidatesOnChange(t *testing.T) {
	d := NewHP()
	g := d.NewGuard(1)
	defer g.Release()

	var shared atomic.Pointer[node]
	shared.Store(&node{v: 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				shared.Store(&node{v: 2})
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		g.Enter()
		p := Load(g, 0, &shared)
		if p == nil {
			t.Fatal("nil from non-nil source")
		}
		g.Exit()
	}
	close(stop)
	wg.Wait()
}

func TestRecyclerReusesReclaimedNodes(t *testing.T) {
	d := NewEBR()
	d.SetAdvanceInterval(1)
	r := NewRecycler(func(n *node) { n.v = 0; n.freed.Store(false) })
	g := d.NewGuard(0)
	defer g.Release()

	// Retire dirty nodes and drain Gets until a reuse is observed. The
	// loop bound absorbs sync.Pool's deliberate random drops under the
	// race detector; one round would flake there.
	for round := 0; round < 200 && r.Reused() == 0; round++ {
		n := r.Get()
		n.v = 42
		Retire(g, r, n)
		for i := 0; i < 4; i++ {
			if m := r.Get(); m.v != 0 {
				t.Fatalf("recycled node not reset: v = %d", m.v)
			}
		}
	}
	if d.Reclaimed() == 0 {
		t.Fatal("retired nodes never reclaimed")
	}
	if r.Reused() == 0 {
		t.Fatal("recycler never reused a node")
	}
}

func TestRecyclerPutGiveBack(t *testing.T) {
	r := NewRecycler(func(n *node) { n.v = 0 })
	n := r.Get()
	n.v = 9
	r.Put(n)
	m := r.Get()
	if m.v != 0 {
		t.Fatalf("given-back node not reset: v = %d", m.v)
	}
}

func TestNilRecyclerAllocates(t *testing.T) {
	var r *Recycler[node]
	if r.Get() == nil {
		t.Fatal("nil recycler returned nil node")
	}
	r.Put(&node{}) // must not panic
	if r.Reused() != 0 {
		t.Fatal("nil recycler claims reuse")
	}
	// Retire through a real guard with nil recycler still counts.
	d := NewEBR()
	d.SetAdvanceInterval(1)
	g := d.NewGuard(0)
	defer g.Release()
	Retire(g, r, &node{})
	for i := 0; i < 16 && d.Reclaimed() == 0; i++ {
		Retire(g, r, &node{})
	}
	if d.Reclaimed() == 0 {
		t.Fatal("nil-recycler retirement never reclaimed")
	}
}

// TestDomainsNeverFreeReachable is the cross-scheme invariant stress: for
// each deferring domain, readers guard-protect the current head and verify
// its destructor has not run; writers swap heads and retire the old one.
func TestDomainsNeverFreeReachable(t *testing.T) {
	domains := map[string]func() Domain{
		"ebr": func() Domain { e := NewEBR(); e.SetAdvanceInterval(8); return e },
		"hp":  func() Domain { h := NewHP(); h.SetScanThreshold(8); return h },
	}
	for name, mk := range domains {
		t.Run(name, func(t *testing.T) {
			d := mk()
			pool := NewPool(d, 1)
			var shared atomic.Pointer[node]
			shared.Store(&node{})

			var (
				rwg, wwg sync.WaitGroup
				stop     = make(chan struct{})
			)
			readers := max(2, runtime.GOMAXPROCS(0)/2)
			for i := 0; i < readers; i++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						g := pool.Enter()
						p := Load(g, 0, &shared)
						freed := p != nil && p.freed.Load()
						pool.Exit(g)
						if freed {
							t.Error("reader reached a freed object")
							return
						}
					}
				}()
			}
			for i := 0; i < 2; i++ {
				wwg.Add(1)
				go func() {
					defer wwg.Done()
					for n := 0; n < 20000; n++ {
						g := pool.Enter()
						old := shared.Swap(&node{})
						retireFunc(g, old, func() { old.freed.Store(true) })
						pool.Exit(g)
					}
				}()
			}
			wwg.Wait()
			close(stop)
			rwg.Wait()
			if t.Failed() {
				return
			}
			if d.Reclaimed() == 0 {
				t.Fatal("stress run reclaimed nothing — protocol inert")
			}
		})
	}
}
