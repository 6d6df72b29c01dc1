package hazard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// freeFunc adapts a test's func to a Freer.
type freeFunc func()

func (f freeFunc) Free(unsafe.Pointer) { f() }

func TestRetireFreesUnprotected(t *testing.T) {
	d := NewDomain()
	d.SetScanThreshold(4)
	h := d.NewHandle(1)
	defer h.Release()

	freed := 0
	for i := 0; i < 8; i++ {
		p := &struct{ x int }{x: i}
		h.Retire(unsafe.Pointer(p), nil, freeFunc(func() { freed++ }))
	}
	h.Scan()
	if freed != 8 {
		t.Fatalf("freed = %d, want 8", freed)
	}
	if d.Reclaimed() != 8 || d.Pending() != 0 {
		t.Fatalf("stats = (%d reclaimed, %d pending)", d.Reclaimed(), d.Pending())
	}
}

func TestProtectedObjectSurvivesScan(t *testing.T) {
	d := NewDomain()
	reader := d.NewHandle(1)
	writer := d.NewHandle(1)
	defer reader.Release()
	defer writer.Release()

	type node struct{ v int }
	var shared atomic.Pointer[node]
	obj := &node{v: 42}
	shared.Store(obj)

	// Reader protects the object.
	got := Protect(reader.Slot(0), &shared)
	if got != obj {
		t.Fatalf("Protect returned %p, want %p", got, obj)
	}

	// Writer unlinks and retires it; scans must not free it.
	shared.Store(nil)
	var freed atomic.Bool
	writer.Retire(unsafe.Pointer(obj), nil, freeFunc(func() { freed.Store(true) }))
	for i := 0; i < 5; i++ {
		writer.Scan()
	}
	if freed.Load() {
		t.Fatal("protected object was freed")
	}

	// Clearing the hazard releases it.
	reader.Slot(0).Clear()
	writer.Scan()
	if !freed.Load() {
		t.Fatal("unprotected object not freed by scan")
	}
}

func TestProtectRevalidates(t *testing.T) {
	// If the source changes mid-protection, Protect must converge on a
	// value that was re-validated, never returning a stale unpublished one.
	type node struct{ v int }
	d := NewDomain()
	h := d.NewHandle(1)
	defer h.Release()

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
	for i := 0; i < 10000; i++ {
		p := Protect(h.Slot(0), &shared)
		if p == nil {
			t.Fatal("nil from non-nil source")
		}
		if hp := h.Slot(0).loadPtr(); hp != (*byte)(unsafe.Pointer(p)) {
			t.Fatalf("slot holds %p, protect returned %p", hp, p)
		}
	}
	close(stop)
	wg.Wait()
}

func TestProtectNilSource(t *testing.T) {
	type node struct{ v int }
	d := NewDomain()
	h := d.NewHandle(1)
	defer h.Release()
	var shared atomic.Pointer[node]
	if p := Protect(h.Slot(0), &shared); p != nil {
		t.Fatalf("Protect of nil source = %v", p)
	}
	if v := h.Slot(0).loadPtr(); v != nil {
		t.Fatalf("slot not cleared on nil source: %v", v)
	}
}

func TestReleaseHandsOffRetired(t *testing.T) {
	d := NewDomain()
	d.SetScanThreshold(1000) // prevent auto-scan
	blocker := d.NewHandle(1)
	leaver := d.NewHandle(1)

	type node struct{ v int }
	var shared atomic.Pointer[node]
	obj := &node{}
	shared.Store(obj)
	Protect(blocker.Slot(0), &shared)

	var freed atomic.Bool
	leaver.Retire(unsafe.Pointer(obj), nil, freeFunc(func() { freed.Store(true) }))
	leaver.Release() // obj still protected: must survive the handoff
	if freed.Load() {
		t.Fatal("protected object freed during handle release")
	}
	blocker.Slot(0).Clear()
	blocker.Scan()
	d.Drain()
	if !freed.Load() {
		t.Fatal("object never freed after handoff")
	}
}

// TestReleaseRetireScanRace pins down the Release ownership rule: a
// handle's retire buffer is owner-only state, so Release must route its
// leftovers through the domain's orphan list, never append them into
// another live handle's buffer. The old code pushed leftovers into
// d.handles[0] — here the owner goroutine concurrently running
// Retire/Scan — which the race detector flags as a write-write race on
// the owner's retired slice.
func TestReleaseRetireScanRace(t *testing.T) {
	type node struct{ v int }
	d := NewDomain()
	d.SetScanThreshold(4)

	owner := d.NewHandle(1) // registered first: the old code's handoff target
	protector := d.NewHandle(1)
	defer protector.Release()

	// A protected object makes every releasing handle leave leftovers.
	obj := &node{}
	var shared atomic.Pointer[node]
	shared.Store(obj)
	Protect(protector.Slot(0), &shared)

	stop := make(chan struct{})
	var ownerWG, churnWG sync.WaitGroup
	ownerWG.Add(1)
	go func() { // the owner races Retire/Scan on its own buffer
		defer ownerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := &node{}
			owner.Retire(unsafe.Pointer(p), nil, freeFunc(func() {}))
			owner.Scan()
		}
	}()
	churnWG.Add(1)
	go func() { // churning handles release with protected leftovers
		defer churnWG.Done()
		for i := 0; i < 2000; i++ {
			h := d.NewHandle(1)
			h.Retire(unsafe.Pointer(obj), nil, freeFunc(func() {}))
			h.Release()
		}
	}()
	churnWG.Wait()
	close(stop)
	ownerWG.Wait()

	owner.Release()
	protector.Slot(0).Clear()
	d.Drain()
	if d.Pending() != 0 {
		t.Fatalf("Pending = %d after full drain, want 0", d.Pending())
	}
	if d.Reclaimed() == 0 {
		t.Fatal("nothing reclaimed — scan never ran")
	}
}

// TestConcurrentStress: readers continuously protect the current head
// object and verify it is never freed while they hold it; writers swap and
// retire heads.
func TestConcurrentStress(t *testing.T) {
	type node struct {
		freed atomic.Bool
	}
	d := NewDomain()
	d.SetScanThreshold(16)

	var shared atomic.Pointer[node]
	shared.Store(&node{})

	var (
		wwg, rwg sync.WaitGroup
		stop     = make(chan struct{})
	)
	readers := max(2, runtime.GOMAXPROCS(0)/2)
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			h := d.NewHandle(1)
			defer h.Release()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := Protect(h.Slot(0), &shared)
				if p == nil {
					continue
				}
				if p.freed.Load() {
					t.Error("reader holds a freed object")
					return
				}
				h.Slot(0).Clear()
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			h := d.NewHandle(1)
			defer h.Release()
			for i := 0; i < 20000; i++ {
				old := shared.Swap(&node{})
				h.Retire(unsafe.Pointer(old), nil, freeFunc(func() { old.freed.Store(true) }))
			}
		}()
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		return
	}
	d.Drain()
	if d.Reclaimed() == 0 {
		t.Fatal("stress run reclaimed nothing — protocol inert")
	}
}
