package epoch

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

func TestSequentialRetireAndCollect(t *testing.T) {
	c := NewCollector()
	p := c.Register()
	defer c.Unregister(p)

	freed := 0
	for i := 0; i < 10; i++ {
		p.Retire(nil, freeFunc(func() { freed++ }))
	}
	if got := c.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	// With no pins anywhere, three advances age everything out.
	for i := 0; i < 3; i++ {
		if !c.TryAdvance() {
			t.Fatalf("advance %d failed with no pinned participants", i)
		}
	}
	p.Collect()
	if freed != 10 {
		t.Fatalf("freed = %d, want 10", freed)
	}
	if got := c.Reclaimed(); got != 10 {
		t.Fatalf("Reclaimed = %d, want 10", got)
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0", got)
	}
}

func TestPinBlocksAdvance(t *testing.T) {
	c := NewCollector()
	p := c.Register()
	defer c.Unregister(p)

	p.Pin()
	e := c.Epoch()
	if !c.TryAdvance() {
		t.Fatal("first advance should succeed: pinned participant has seen the current epoch")
	}
	// p is still pinned at e; the next advance requires p to observe e+1.
	if c.TryAdvance() {
		t.Fatalf("advance to %d succeeded while a participant is pinned at %d", e+2, e)
	}
	p.Unpin()
	if !c.TryAdvance() {
		t.Fatal("advance after Unpin failed")
	}
}

func TestRetiredNotFreedWhilePinnedReaderCanHoldIt(t *testing.T) {
	// The core safety invariant, tested mechanically: a reader pins and
	// "acquires" an object; a writer retires it; the object must not be
	// freed until after the reader unpins.
	c := NewCollector()
	reader := c.Register()
	writer := c.Register()
	defer c.Unregister(reader)
	defer c.Unregister(writer)

	var freed atomic.Bool
	reader.Pin()
	// Reader holds a conceptual reference from inside its section.
	writer.Retire(nil, freeFunc(func() { freed.Store(true) }))

	// Writer tries hard to reclaim; the pinned reader must prevent it.
	for i := 0; i < 10; i++ {
		c.TryAdvance()
		writer.Collect()
	}
	if freed.Load() {
		t.Fatal("object freed while a reader pinned at retire epoch was active")
	}
	reader.Unpin()
	for i := 0; i < 3; i++ {
		c.TryAdvance()
	}
	writer.Collect()
	if !freed.Load() {
		t.Fatal("object never freed after reader unpinned")
	}
}

func TestNestedPins(t *testing.T) {
	c := NewCollector()
	p := c.Register()
	defer c.Unregister(p)

	p.Pin()
	p.Pin()
	p.Unpin()
	// Still pinned: epoch must not advance twice.
	c.TryAdvance()
	if c.TryAdvance() {
		t.Fatal("epoch advanced twice under a nested pin")
	}
	p.Unpin()
	if !c.TryAdvance() {
		t.Fatal("advance failed after full unpin")
	}
}

func TestUnpinWithoutPinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unpin without Pin did not panic")
		}
	}()
	c := NewCollector()
	p := c.Register()
	p.Unpin()
}

func TestUnregisterInheritsBags(t *testing.T) {
	c := NewCollector()
	p := c.Register()
	blocker := c.Register()
	defer c.Unregister(blocker)

	var freed atomic.Int64
	blocker.Pin()
	for i := 0; i < 5; i++ {
		p.Retire(nil, freeFunc(func() { freed.Add(1) }))
	}
	c.Unregister(p) // bags become orphans; blocker still pinned
	if freed.Load() != 0 {
		t.Fatal("orphan bags freed while blocker pinned at retire epoch")
	}
	blocker.Unpin()
	for i := 0; i < 3; i++ {
		c.TryAdvance()
	}
	if got := freed.Load(); got != 5 {
		t.Fatalf("orphans freed = %d, want 5", got)
	}
}

func TestUnregisterPinnedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unregister of pinned participant did not panic")
		}
	}()
	c := NewCollector()
	p := c.Register()
	p.Pin()
	c.Unregister(p)
}

// TestLostAdvanceStillDrainsOrphans pins down the orphan-drain liveness
// rule: a TryAdvance whose CAS loses to a concurrent advance must still
// drain aged-out orphan bags, because the winner may have drained *before*
// those orphans were parked (an Unregister landing in between). The old
// code drained only on CAS success, so the bag lingered until the next
// successful advance — arbitrarily far away once callers go quiescent.
func TestLostAdvanceStillDrainsOrphans(t *testing.T) {
	c := NewCollector()
	for c.Epoch() < 5 {
		if !c.TryAdvance() {
			t.Fatal("setup advance failed with no participants")
		}
	}

	var freed atomic.Int64
	fired := false
	c.advanceTestHook = func() {
		if fired {
			return
		}
		fired = true
		// A concurrent winner advances 5→6 and drains (nothing aged yet)...
		if !c.global.CompareAndSwap(5, 6) {
			t.Fatal("hook: concurrent advance failed")
		}
		c.drainOrphans()
		// ...then an Unregister lands: a bag retired at epoch 4 is parked
		// as an orphan — already aged out (4+2 <= 6) but missed by the
		// winner's drain.
		c.mu.Lock()
		c.orphans[4] = append(c.orphans[4], retirement{f: freeFunc(func() { freed.Add(1) })})
		c.mu.Unlock()
		c.orphanCount.Add(1)
		c.pending.Add(1)
	}

	if c.TryAdvance() {
		t.Fatal("TryAdvance CAS should have lost to the hooked concurrent advance")
	}
	if got := freed.Load(); got != 1 {
		t.Fatalf("aged-out orphan bag not drained after losing the advance race: freed = %d, want 1", got)
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending = %d after drain, want 0", got)
	}
}

// TestOrphanAgingUnderRacingAdvances churns unregistering participants
// (each parking an orphan bag) against goroutines hammering TryAdvance, so
// the CAS-lost drain path runs concurrently with winners' drains — the
// interleaving the race detector must see clean — and every orphan is
// eventually freed while the advancers are still racing.
func TestOrphanAgingUnderRacingAdvances(t *testing.T) {
	c := NewCollector()
	var freed atomic.Int64
	const total = 500

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.TryAdvance()
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		p := c.Register()
		p.Retire(nil, freeFunc(func() { freed.Add(1) }))
		c.Unregister(p)
	}
	// Liveness: with no pinned participants the racers keep advancing, and
	// every observation of an advance (won or lost) drains aged bags.
	for spin := 0; freed.Load() < total && spin < 1e8; spin++ {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if got := freed.Load(); got != total {
		t.Fatalf("orphans freed = %d, want %d", got, total)
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0", got)
	}
}

// TestConcurrentReclamationStress runs readers continuously pinning and
// "accessing" a shared object graph while writers unlink+retire objects.
// Invariant: no reader ever observes an object after its destructor ran.
func TestConcurrentReclamationStress(t *testing.T) {
	type object struct {
		freed atomic.Bool
	}
	c := NewCollector()

	// shared holds the currently linked object (like a head pointer).
	var shared atomic.Pointer[object]
	shared.Store(&object{})

	var (
		rwg, wwg sync.WaitGroup
		stop     = make(chan struct{})
		readers  = max(2, runtime.GOMAXPROCS(0)/2)
		writers  = 2
		observed atomic.Int64
	)
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			p := c.Register()
			defer c.Unregister(p)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.Pin()
				obj := shared.Load() // reachable ⇒ not yet reclaimable
				if obj.freed.Load() {
					t.Error("reader reached a freed object")
					p.Unpin()
					return
				}
				observed.Add(1)
				p.Unpin()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			p := c.Register()
			defer c.Unregister(p)
			for i := 0; i < 20000; i++ {
				old := shared.Swap(&object{}) // unlink
				p.Retire(nil, freeFunc(func() { old.freed.Store(true) }))
			}
		}()
	}
	wwg.Wait()  // writers finish first
	close(stop) // then release the readers
	rwg.Wait()

	if t.Failed() {
		return
	}
	if c.Reclaimed() == 0 {
		t.Fatal("stress run reclaimed nothing — protocol inert")
	}
	if observed.Load() == 0 {
		t.Fatal("readers never ran")
	}
}

// TestDrainedBagsStayBounded pins both halves of bag reuse: a drained bag
// keeps its array (the steady state appends into it without growing), and
// a burst does not set the participant's idle footprint for good — after
// 100 k retirements pile up behind a pinned reader and then drain, the
// three bags together hold at most bagKeepFactor advance intervals each.
func TestDrainedBagsStayBounded(t *testing.T) {
	c := NewCollector()
	p := c.Register()
	reader := c.Register()
	var freed int
	count := freeFunc(func() { freed++ })

	reader.Pin() // holds the epoch: the burst cannot drain
	const burst = 100_000
	for i := 0; i < burst; i++ {
		p.Retire(nil, count)
	}
	if freed != 0 {
		t.Fatalf("%d retirements freed under a pinned reader", freed)
	}
	reader.Unpin()
	for i := 0; i < epochBags; i++ {
		c.TryAdvance()
	}
	p.Collect()
	if freed != burst || c.Pending() != 0 {
		t.Fatalf("after the drain: freed %d, pending %d; want %d, 0", freed, c.Pending(), burst)
	}
	bound := epochBags * bagKeepFactor * int(c.advanceEvery)
	if got := cap(p.bags[0]) + cap(p.bags[1]) + cap(p.bags[2]); got > bound {
		t.Errorf("drained bags keep %d records of capacity after a burst, want <= %d", got, bound)
	}

	// Steady state: every bag the rotation drains is appended into again.
	for i := 0; i < 64*int(c.advanceEvery); i++ {
		p.Retire(nil, count)
	}
	caps := [epochBags]int{cap(p.bags[0]), cap(p.bags[1]), cap(p.bags[2])}
	for i := 0; i < 64*int(c.advanceEvery); i++ {
		p.Retire(nil, count)
	}
	if now := [epochBags]int{cap(p.bags[0]), cap(p.bags[1]), cap(p.bags[2])}; now != caps {
		t.Errorf("bag capacities moved in steady state: %v -> %v, want the arrays reused", caps, now)
	}
	for i, bag := range p.bags {
		for _, r := range bag[len(bag):cap(bag)] {
			if r != (retirement{}) {
				t.Fatalf("bag %d keeps a drained record beyond its length", i)
			}
		}
	}
}
