// Package epoch implements epoch-based memory reclamation (EBR; Fraser
// 2004), the quiescence scheme that lock-free structures in non-GC
// languages use to decide when an unlinked node is safe to free.
//
// Go's garbage collector already guarantees memory safety, so the
// structures in this module do not *need* EBR — but the survey treats
// reclamation as a core part of lock-free data structure design, and its
// costs (read-side pinning, deferred destruction bursts) are part of the
// canonical measurements (experiment F12). This implementation is the real
// protocol: a retirement's Freer runs only when no pinned reader could
// still hold a reference, and the invariant tests in this package verify
// exactly that.
//
// Protocol: readers pin the current global epoch while accessing shared
// nodes. Writers retire nodes into the bag of the epoch current at retire
// time. The global epoch advances from e to e+1 only when every pinned
// participant has observed e; hence when the global epoch reaches e+2, no
// reader can still be inside a critical section that began at epoch e, and
// bags retired at e may be drained. Three bags per participant suffice
// because at most three epochs {e-1, e, e+1} can be "live" at once.
//
// A retirement is a record {object, freer}, not a closure: Retire
// allocates nothing, and a drained bag keeps its (zeroed, bounded) backing
// array for the next generation. The object word is whatever the freer
// needs to be handed back and nothing more — EBR itself never looks at
// it — so a retirement whose freer ignores its argument passes nil and
// the participant holds no reference to the retired object while it
// waits. That matters because a bag lives until its owner next retires or
// collects: a parked participant's bags would otherwise pin every retired
// node, and through a node's stale next pointers the nodes retired after
// it.
package epoch

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/cds-suite/cds/internal/pad"
)

// Freer is the action half of a retirement record: Free runs once, on
// whichever goroutine drains the record, with the object word the
// retirement carried. It is an alias of the unnamed interface type so
// that reclaim, epoch and hazard name one identical type and hand values
// across without an interface conversion.
type Freer = interface{ Free(obj unsafe.Pointer) }

// retirement is one deferred Free call.
type retirement struct {
	obj unsafe.Pointer
	f   Freer
}

// epochBags is the number of retirement generations kept per participant.
const epochBags = 3

// Collector coordinates epochs across participants. One Collector serves
// one data structure (or a family sharing reclamation).
type Collector struct {
	global atomic.Uint64

	// advancing single-flights TryAdvance's registry scan: concurrent
	// callers skip instead of convoying on mu behind the scanner, which
	// keeps heavily retiring workloads from serialising on the registry
	// lock (the scan is O(participants) and runs on a retire cadence).
	advancing atomic.Bool

	mu           sync.Mutex // guards participants registry and orphans
	participants []*Participant
	// orphans holds bags inherited from unregistered participants, keyed
	// by retirement epoch; they age out under the same e+2 rule.
	orphans map[uint64][]retirement
	// orphanCount mirrors the total size of orphans so hot paths can skip
	// the drain lock when there is nothing to drain.
	orphanCount atomic.Int64

	reclaimed atomic.Int64
	pending   atomic.Int64

	// advanceEvery is the per-participant Retire cadence for attempting an
	// epoch advance (and collecting aged bags). Fixed after construction.
	advanceEvery uint64

	// advanceTestHook, when non-nil, runs between TryAdvance's epoch load
	// and its CAS — the window where a concurrent advance makes the CAS
	// lose. Tests use it to pin down the orphan-drain liveness guarantee.
	advanceTestHook func()
}

// defaultAdvanceEvery is how many retirements a participant buffers between
// epoch-advance attempts.
const defaultAdvanceEvery = 64

// bagKeepFactor bounds the capacity a drained bag may keep, in advance
// intervals. A bag collects one to two intervals of retirements in steady
// state; append's doubling makes that a capacity of up to four.
const bagKeepFactor = 4

// NewCollector returns a Collector at epoch 1.
func NewCollector() *Collector {
	c := &Collector{
		orphans:      make(map[uint64][]retirement),
		advanceEvery: defaultAdvanceEvery,
	}
	c.global.Store(1)
	return c
}

// SetAdvanceInterval overrides how many retirements a participant buffers
// between epoch-advance attempts (for tests and tuning). Must be called
// before participants start retiring.
func (c *Collector) SetAdvanceInterval(n uint64) {
	if n < 1 {
		n = 1
	}
	c.advanceEvery = n
}

// Register adds a participant (one per accessing goroutine). Participants
// must be unregistered when their goroutine stops, or epoch advancement
// stalls and garbage accumulates — the classic EBR liveness caveat.
func (c *Collector) Register() *Participant {
	p := &Participant{c: c}
	c.mu.Lock()
	c.participants = append(c.participants, p)
	c.mu.Unlock()
	return p
}

// Unregister removes p. Its undrained bags are inherited by the collector
// as orphans and freed once their epochs age out — never early, even if
// other participants are still pinned in old epochs.
func (c *Collector) Unregister(p *Participant) {
	if p.pinDepth != 0 {
		panic("epoch: Unregister of a pinned participant")
	}
	c.mu.Lock()
	for i, q := range c.participants {
		if q == p {
			c.participants[i] = c.participants[len(c.participants)-1]
			c.participants = c.participants[:len(c.participants)-1]
			break
		}
	}
	for i := range p.bags {
		if len(p.bags[i]) > 0 {
			e := p.bagEpoch[i]
			c.orphans[e] = append(c.orphans[e], p.bags[i]...)
			c.orphanCount.Add(int64(len(p.bags[i])))
			p.bags[i] = nil
		}
	}
	c.mu.Unlock()
	c.TryAdvance()
}

// drainOrphans frees aged-out orphan bags. Called after epoch advances.
func (c *Collector) drainOrphans() {
	g := c.global.Load()
	var ready []retirement
	c.mu.Lock()
	for e, bag := range c.orphans {
		if e+2 <= g {
			ready = append(ready, bag...)
			delete(c.orphans, e)
		}
	}
	c.orphanCount.Add(-int64(len(ready)))
	c.mu.Unlock()
	if len(ready) == 0 {
		return
	}
	for _, r := range ready {
		r.f.Free(r.obj)
	}
	c.reclaimed.Add(int64(len(ready)))
	c.pending.Add(-int64(len(ready)))
}

// Epoch returns the current global epoch (for monitoring and tests).
func (c *Collector) Epoch() uint64 { return c.global.Load() }

// Reclaimed returns the number of retirements freed so far.
func (c *Collector) Reclaimed() int64 { return c.reclaimed.Load() }

// Pending returns the number of retired-but-not-yet-freed objects.
func (c *Collector) Pending() int64 { return c.pending.Load() }

// TryAdvance attempts to move the global epoch forward by one. It fails
// (harmlessly) if some participant is still pinned at an older epoch.
// It reports whether the epoch advanced.
func (c *Collector) TryAdvance() bool {
	e := c.global.Load()
	if !c.advancing.CompareAndSwap(false, true) {
		// Another caller is mid-scan; skip rather than queue behind it.
		// Still honour the drain-on-observed-advance rule below so aged
		// orphans cannot outlive an advance we raced with.
		if c.orphanCount.Load() > 0 && c.global.Load() > e {
			c.drainOrphans()
		}
		return false
	}
	c.mu.Lock()
	for _, p := range c.participants {
		s := p.state.Load()
		if s&1 == 1 && s>>1 != e {
			c.mu.Unlock()
			c.advancing.Store(false)
			return false // pinned in an older epoch
		}
	}
	c.mu.Unlock()
	if h := c.advanceTestHook; h != nil {
		h()
	}
	advanced := c.global.CompareAndSwap(e, e+1)
	c.advancing.Store(false)
	// Drain whenever an advance was observed — ours or a concurrent one
	// that beat our CAS. Draining only on CAS success leaves aged-out
	// orphan bags (e.g. from an Unregister that landed after the winner's
	// drain) lingering until the *next* successful advance, which may be
	// arbitrarily far away once the callers go quiescent.
	if (advanced || c.global.Load() > e) && c.orphanCount.Load() > 0 {
		c.drainOrphans()
	}
	return advanced
}

// Participant is one goroutine's registration with a Collector. Its
// methods must be called from a single goroutine at a time.
type Participant struct {
	c *Collector

	// state is epoch<<1|1 while pinned, 0 while quiescent.
	state atomic.Uint64
	_     pad.CacheLinePad

	// bags hold retirement records by generation; owner-only.
	bags     [epochBags][]retirement
	bagEpoch [epochBags]uint64

	pinEpoch uint64
	pinDepth int
	ops      uint64
}

// Pin enters a read-side critical section: the current epoch is held until
// the matching Unpin. Pins nest.
func (p *Participant) Pin() {
	if p.pinDepth == 0 {
		e := p.c.global.Load()
		p.pinEpoch = e
		// SC atomics order this store before the section's loads, which is
		// the fence EBR needs between "announce" and "read".
		p.state.Store(e<<1 | 1)
	}
	p.pinDepth++
}

// Unpin leaves the read-side critical section.
func (p *Participant) Unpin() {
	p.pinDepth--
	if p.pinDepth == 0 {
		p.state.Store(0)
	}
	if p.pinDepth < 0 {
		panic("epoch: Unpin without matching Pin")
	}
}

// Retire schedules f.Free(obj) to run once no pinned reader can still
// reach the retired object. obj is the word Free is handed back — the
// object when f needs it, nil when it does not (see the package comment).
// It may be called pinned or unpinned.
func (p *Participant) Retire(obj unsafe.Pointer, f Freer) {
	e := p.c.global.Load()
	idx := e % epochBags
	if p.bagEpoch[idx] != e {
		// The slot holds a bag from epoch e-3 or older: e ≥ old+3 means
		// the global epoch passed old+2, so its contents are safe now.
		p.drainBag(idx)
		p.bagEpoch[idx] = e
	}
	p.bags[idx] = append(p.bags[idx], retirement{obj, f})
	p.c.pending.Add(1)

	p.ops++
	if p.ops%p.c.advanceEvery == 0 {
		p.c.TryAdvance()
		p.Collect()
	}
}

// Collect drains every bag whose epoch has aged out (epoch ≤ global-2).
func (p *Participant) Collect() {
	g := p.c.global.Load()
	for i := range p.bags {
		if len(p.bags[i]) > 0 && p.bagEpoch[i]+2 <= g {
			p.drainBag(uint64(i))
		}
	}
}

// drainBag frees and empties bag idx. Owner-only. The backing array is
// zeroed — a drained record must not pin its object — and kept for the
// next generation unless a burst grew it past bagKeepFactor advance
// intervals, so a participant's idle capacity stays bounded by its steady
// state, not by the largest burst it ever saw.
func (p *Participant) drainBag(idx uint64) {
	bag := p.bags[idx]
	if len(bag) == 0 {
		return
	}
	p.bags[idx] = nil
	for _, r := range bag {
		r.f.Free(r.obj)
	}
	p.c.reclaimed.Add(int64(len(bag)))
	p.c.pending.Add(-int64(len(bag)))
	// The len check is for a Free that retired into this participant.
	if uint64(cap(bag)) <= bagKeepFactor*p.c.advanceEvery && len(p.bags[idx]) == 0 {
		clear(bag)
		p.bags[idx] = bag[:0]
	}
}
