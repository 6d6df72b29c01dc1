package reclaim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/cds-suite/cds/internal/pad"
)

// Pool amortises guard registration across operations and is the one
// place a structure's "plain GC or a real domain?" question is answered:
// NewPool returns a nil *Pool for a nil or non-deferring domain, Enter on
// a nil pool yields a nil Guard, and Load, Retire and Exit accept a nil
// guard (plain load, drop, no-op). A structure therefore keeps one
// possibly-nil Pool, brackets each operation with Enter/Exit, and writes
// each algorithm once against a possibly-nil guard. Handing a guard to at
// most one goroutine at a time is exactly the owner-only discipline
// guards require.
//
// The cache is a fixed ring of padded TryLock slots rather than a
// sync.Pool: parked guards are registered domain state (an EBR
// participant, a set of hazard slots), and a cache that sheds items under
// GC pressure — or deliberately, as sync.Pool does under the race
// detector — leaks registrations faster than they can be torn down,
// growing every domain scan. Here the registry is bounded by
// construction: an Exit that finds the ring full releases the guard
// instead of parking it.
//
// A goroutine's home slot is derived from the address of its stack at a
// homeGranule granule. The runtime allocates stacks in size-aligned
// power-of-two classes, so while a goroutine's stack is at least one
// granule and its calls stay within the top granule of it, every Enter
// and Exit it makes — from whatever call depth — lands on the same slot:
// it reacquires the guard it parked, with the participant state, retire
// bags and hazard slots its core already has in cache, and touches no
// other goroutine's slot line. The home is a hint, not an identity. Two
// goroutines can collide (small stacks inside one granule, or two
// granules that hash alike), and a stack that grows moves: then the one
// that finds its home empty or busy probes on round the ring, may take a
// guard another goroutine parked, and pays for both in cache misses.
// Correctness never depends on the hit; homeMiss counts the misses.
type Pool struct {
	d     Domain
	slots int
	cache []pslot
	// homeMiss counts Enter calls whose first probe did not yield a guard
	// (the affinity test reads it). It is bumped off the hit path only,
	// and padded away from the read-only words above so that a goroutine
	// which does keep missing does not bounce their line.
	_        pad.CacheLinePad
	homeMiss atomic.Int64
}

// homeGranule is log2 of the stack-address granule home() hashes: 8 KiB,
// no finer than the stacks the workers of a loaded structure run on (the
// runtime's small classes are 2, 4, 8 and 16 KiB). A finer granule gives
// one goroutine a different home at every call depth.
const homeGranule = 13

// pslot is one ring element, exactly one cache line: the lock word and
// the parked guard first, padding to the line after, so that neighbouring
// slots (neighbouring goroutines' homes) never share a line.
type pslot struct {
	mu sync.Mutex
	g  Guard
	_  [pad.CacheLineSize - unsafe.Sizeof(sync.Mutex{}) - unsafe.Sizeof(Guard(nil))]byte
}

// NewPool returns a guard pool over d; guards are created with the given
// hazard-slot capacity. It returns nil when d is nil or does not defer
// (the GC domain): there is nothing to register, pin or retire, and the
// nil pool's Enter hands out the nil guard that says so.
func NewPool(d Domain, slots int) *Pool {
	if d == nil || !d.Deferred() {
		return nil
	}
	n := 4
	for n < 2*runtime.GOMAXPROCS(0) {
		n *= 2
	}
	return &Pool{d: d, slots: slots, cache: make([]pslot, n)}
}

// Enter checks a guard out of the pool and opens its section; the caller
// owns it exclusively until Exit. A nil pool returns a nil guard. Like
// Exit, Load and Retire it is a nil check in front of an outlined slow
// path, so that the plain-GC configuration inlines to a compare at every
// call site.
func (p *Pool) Enter() Guard {
	if p == nil {
		return nil
	}
	return p.enter()
}

func (p *Pool) enter() Guard {
	mask := len(p.cache) - 1
	for i, idx := 0, p.home(); i < len(p.cache); i++ {
		s := &p.cache[(idx+i)&mask]
		if s.mu.TryLock() {
			g := s.g
			s.g = nil
			s.mu.Unlock()
			if g != nil {
				g.Enter()
				return g
			}
		}
		if i == 0 {
			p.homeMiss.Add(1)
		}
	}
	g := p.d.NewGuard(p.slots)
	g.Enter()
	return g
}

// Exit closes g's section and parks it for reuse; when the ring is full
// the guard is released instead, keeping the domain's registration count
// bounded. g must come from p.Enter; a nil g (from a nil pool) is a no-op.
// Never park the goroutine between Enter and Exit: a pinned epoch stalls
// the whole domain.
func (p *Pool) Exit(g Guard) {
	if g != nil {
		p.exit(g)
	}
}

func (p *Pool) exit(g Guard) {
	g.Exit()
	mask := len(p.cache) - 1
	for i, idx := 0, p.home(); i < len(p.cache); i++ {
		s := &p.cache[(idx+i)&mask]
		if s.mu.TryLock() {
			if s.g == nil {
				s.g = g
				s.mu.Unlock()
				return
			}
			s.mu.Unlock()
		}
	}
	g.Release()
}

// home returns this goroutine's preferred ring index: its stack's
// homeGranule granule, modulo the ring.
func (p *Pool) home() int {
	var probe byte
	return int((uintptr(unsafe.Pointer(&probe)) >> homeGranule) & uintptr(len(p.cache)-1))
}

// Drain releases every parked guard, handing their buffered retirements
// back to the domain as orphans, which subsequent retire traffic (or the
// backend's own drain) reclaims. Retired objects otherwise sit in the
// buffer of whichever parked guard retired them until that guard is
// reused, so a structure that must reach zero pending garbage at a
// quiescent point — teardown, a leak check — drains its pool first.
// Guards currently checked out are unaffected; the pool remains usable
// (Enter simply registers fresh guards).
func (p *Pool) Drain() {
	for i := range p.cache {
		s := &p.cache[i]
		s.mu.Lock()
		g := s.g
		s.g = nil
		s.mu.Unlock()
		if g != nil {
			g.Release()
		}
	}
}

// Recycler pools retired nodes of one concrete type for reuse, the
// allocation win deferred reclamation unlocks: a node handed to Retire is
// reset and returned to a sync.Pool once the guard's domain declares it
// unreachable, so the structure's next allocation reuses it instead of
// growing the heap. Reuse is safe exactly because the domain interposes —
// without a deferring domain no Freer ever runs, so constructors create a
// recycler only when NewPool gave them a pool. The recycler is itself the
// Freer of the nodes retired through it, so retiring one allocates
// nothing.
//
// A nil *Recycler is valid and allocates normally, which lets structures
// thread one field through both recycled and non-recycled configurations.
type Recycler[T any] struct {
	pool  sync.Pool
	reset func(*T)
	reuse atomic.Int64
}

// NewRecycler returns a recycler whose reset function restores a retired
// node to a publishable state (zero keys/values, nil atomic pointers).
// reset runs before the node re-enters the pool, on whichever goroutine's
// scan reclaimed it.
func NewRecycler[T any](reset func(*T)) *Recycler[T] {
	return &Recycler[T]{reset: reset}
}

// Get returns a zeroed-for-reuse node, recycled if one is available. Like
// the guard helpers, Get and Put are a nil check in front of an outlined
// slow path: without a recycler they inline to new(T) and to nothing.
func (r *Recycler[T]) Get() *T {
	if r == nil {
		return new(T)
	}
	return r.get()
}

func (r *Recycler[T]) get() *T {
	if n, ok := r.pool.Get().(*T); ok {
		r.reuse.Add(1)
		return n
	}
	return new(T)
}

// Put returns a node that was never published to the pool directly — the
// give-back path for nodes prepared but then eliminated or found
// duplicate. Published nodes must go through Retire instead.
func (r *Recycler[T]) Put(n *T) {
	if r != nil {
		r.put(n)
	}
}

func (r *Recycler[T]) put(n *T) {
	r.reset(n)
	r.pool.Put(n)
}

// Free implements Freer: obj is a *T retired through r, now unreachable.
func (r *Recycler[T]) Free(obj unsafe.Pointer) { r.put((*T)(obj)) }

// Reused returns how many allocations were served from the pool.
func (r *Recycler[T]) Reused() int64 {
	if r == nil {
		return 0
	}
	return r.reuse.Load()
}

// Retire retires n into g; once the domain declares it unreachable it is
// reset and pooled in r for reuse. With a nil recycler the node is left
// to the garbage collector: the retirement still counts (the domain's
// reclaimed/pending gauges stay live), but it carries no reference to n,
// so under EBR n is collectable the moment the structure unlinks it —
// even if the guard is then parked with the retirement still in its bag.
// With a nil guard — the structure runs on plain GC — Retire does nothing
// at all.
func Retire[T any](g Guard, r *Recycler[T], n *T) {
	if g != nil {
		retire(g, r, n)
	}
}

func retire[T any](g Guard, r *Recycler[T], n *T) {
	p := unsafe.Pointer(n)
	if r == nil {
		g.Retire(p, nil, dropped{})
		return
	}
	g.Retire(p, p, r)
}

// dropped is the Freer of an object nobody recycles.
type dropped struct{}

func (dropped) Free(unsafe.Pointer) {}

// Load reads *src for dereferencing under g's hazard slot: it publishes
// the loaded pointer and re-reads src until both agree, the
// publish-and-revalidate dance that guarantees any concurrent retirement
// of the object happened after our publication (so the retirer's scan
// sees the slot). For a nil guard and for non-publishing guards (EBR) it
// is a plain load.
func Load[T any](g Guard, slot int, src *atomic.Pointer[T]) *T {
	if g == nil {
		// src.Load(), spelled out: the method call costs the inliner six
		// more nodes, which puts Load over its budget, and an outlined
		// Load costs the plain-GC structures a call per operation.
		// atomic.Pointer's only sized field is the pointer word
		// (TestNilSeam pins the equivalence).
		return (*T)(atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(src))))
	}
	return load(g, slot, src)
}

func load[T any](g Guard, slot int, src *atomic.Pointer[T]) *T {
	p := src.Load()
	if !g.Protects() {
		return p
	}
	for {
		if p == nil {
			g.Protect(slot, nil)
			return nil
		}
		g.Protect(slot, p)
		q := src.Load()
		if q == p {
			return p
		}
		p = q
	}
}
