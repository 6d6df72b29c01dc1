// Package hazard implements hazard pointers (Michael, "Hazard Pointers:
// Safe Memory Reclamation for Lock-Free Objects", TPDS 2004) — the
// per-pointer alternative to epoch-based reclamation.
//
// Where EBR protects everything a reader might touch for the duration of a
// pinned section, a hazard pointer protects exactly one object at a time:
// before dereferencing a shared pointer, a thread publishes it in its
// hazard slot and re-validates the source. Reclamation scans all slots and
// frees only retired objects no slot names. The trade-offs the survey
// calls out — higher per-read cost (publish + validate), but bounded
// garbage even when threads stall — are what experiment F12 measures
// against EBR.
//
// As with package epoch, Go's GC makes this protocol optional for safety;
// it is implemented fully and its invariant (never free a protected
// object) is what the tests verify.
//
// A retirement is a record {address, object, freer}, not a closure: the
// address is what scans compare against the slots, and freer.Free(object)
// is what runs when no slot names it. Unlike EBR, a handle always holds
// the retired object's address until a scan frees it; a handle scans on
// every scanThreshold'th retirement, into a scratch set it owns, so the
// steady-state retire path allocates nothing.
package hazard

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/cds-suite/cds/internal/pad"
)

// defaultScanThreshold is how many retirements a handle buffers before
// scanning. Michael's analysis wants R = H·(1+Θ(1)) with H total slots;
// a fixed multiple of typical slot counts works for the experiments here.
const defaultScanThreshold = 64

// Domain owns a set of hazard slots and the retire lists that scan against
// them. One Domain serves one data structure (or family).
type Domain struct {
	mu sync.Mutex
	// slots holds every live handle's hazard slots. Scans snapshot the
	// slice header under mu and iterate outside it, which is safe under
	// two rules every mutation must keep: NewHandle only appends (it may
	// grow a shared backing array, but only at indices at or past every
	// snapshot's length, which scanners never read), and any other
	// mutation — like Release dropping a handle's slots — must install a
	// rebuilt slice, never write below a snapshot's length in place.
	slots    []*Slot
	handles  []*Handle
	orphaned []retiredObject // retired objects of released handles

	scanThreshold int
	reclaimed     atomic.Int64
	pending       atomic.Int64
}

// NewDomain returns a Domain with the default scan threshold.
func NewDomain() *Domain {
	return &Domain{scanThreshold: defaultScanThreshold}
}

// SetScanThreshold overrides how many retired objects a handle buffers
// before scanning (for tests and tuning). Must be called before use.
func (d *Domain) SetScanThreshold(n int) {
	if n < 1 {
		n = 1
	}
	d.scanThreshold = n
}

// Reclaimed returns the number of retirements freed so far.
func (d *Domain) Reclaimed() int64 { return d.reclaimed.Load() }

// Pending returns the number of retired-but-not-yet-freed objects.
func (d *Domain) Pending() int64 { return d.pending.Load() }

// Slot is a single hazard pointer: it names at most one object as
// unsafe-to-free. Writing is owner-only; scanning reads it from any
// goroutine.
//
// Hazard equality is pointer identity, so the slot stores the raw address
// of the protected object rather than a boxed interface: publishing is a
// single atomic pointer store with no allocation — this is the per-read
// cost F12 measures, and boxing on every Protect would swamp it with GC
// traffic. The stored address points at the object's allocation base, so
// it also keeps the object GC-reachable on its own.
type Slot struct {
	p atomic.Pointer[byte]
	_ pad.CacheLinePad
}

// dataPtr extracts the data word of an interface value — the object's
// address for the pointer-shaped values the protocol works with. Protect
// must be handed the same pointer value as Retire for identity to hold.
func dataPtr(v any) *byte {
	if v == nil {
		return nil
	}
	return (*byte)((*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1])
}

// setPtr publishes p (owner-only).
func (s *Slot) setPtr(p *byte) { s.p.Store(p) }

// Clear removes protection (owner-only).
func (s *Slot) Clear() { s.p.Store(nil) }

// loadPtr returns the published address, or nil if empty.
func (s *Slot) loadPtr() *byte { return s.p.Load() }

// Protect publishes the pointer read from src in the slot and re-validates
// that src still holds it, looping until the publication is safe. It
// returns the protected pointer (nil if src is nil). This
// publish-and-revalidate dance is the heart of the protocol: once the
// second load agrees, any retirement of the object must have happened
// after our publication, so the scanner will see our slot.
func Protect[T any](s *Slot, src *atomic.Pointer[T]) *T {
	for {
		p := src.Load()
		if p == nil {
			s.Clear()
			return nil
		}
		s.setPtr((*byte)(unsafe.Pointer(p)))
		if src.Load() == p {
			return p
		}
	}
}

// Handle is one goroutine's set of hazard slots plus its retire buffer.
// Methods are owner-only.
type Handle struct {
	d       *Domain
	slots   []*Slot
	retired []retiredObject
	// protected is Scan's scratch set of published addresses: filled and
	// emptied again by every scan, owner-only like retired.
	protected map[*byte]struct{}
}

// Freer is the action half of a retirement record: Free runs once, on
// whichever goroutine's scan frees the record, with the object word the
// retirement carried. It is an alias of the unnamed interface type so
// that reclaim, epoch and hazard name one identical type and hand values
// across without an interface conversion.
type Freer = interface{ Free(obj unsafe.Pointer) }

type retiredObject struct {
	ptr *byte // the address scans look for among the slots
	obj unsafe.Pointer
	f   Freer
}

// NewHandle issues a handle with k hazard slots (k >= 1; most algorithms
// need 1–3).
func (d *Domain) NewHandle(k int) *Handle {
	if k < 1 {
		k = 1
	}
	h := &Handle{d: d, slots: make([]*Slot, k), protected: make(map[*byte]struct{})}
	for i := range h.slots {
		s := &Slot{}
		s.Clear()
		h.slots[i] = s
	}
	d.mu.Lock()
	d.slots = append(d.slots, h.slots...)
	d.handles = append(d.handles, h)
	d.mu.Unlock()
	return h
}

// Slot returns the i'th hazard slot of the handle.
func (h *Handle) Slot(i int) *Slot { return h.slots[i] }

// Protect publishes p in the handle's i'th hazard slot (clearing it when p
// is nil). Unlike the free function Protect, it does not revalidate the
// source — callers that publish raw pointers must re-check the source
// themselves before dereferencing.
func (h *Handle) Protect(i int, p any) {
	h.slots[i].setPtr(dataPtr(p))
}

// Retire schedules f.Free(obj) to run once no hazard slot protects ptr.
// ptr must be the same pointer readers publish via Protect; obj is the
// word Free is handed back (ptr again, or nil when f ignores it).
func (h *Handle) Retire(ptr, obj unsafe.Pointer, f Freer) {
	h.retired = append(h.retired, retiredObject{ptr: (*byte)(ptr), obj: obj, f: f})
	h.d.pending.Add(1)
	if len(h.retired) >= h.d.scanThreshold {
		h.Scan()
	}
}

// Scan frees every retired object not currently named by any hazard slot;
// the rest stay buffered for the next scan. When the domain holds orphaned
// retirements (from released handles), the scan adopts and processes them
// too, so orphans are reclaimed by ordinary retire traffic instead of
// waiting for an explicit Drain.
func (h *Handle) Scan() {
	// Snapshot all hazard slots and steal any orphans under the same
	// lock; bail out first when there is nothing to reclaim (the common
	// case for the final scan of an empty handle being released).
	h.d.mu.Lock()
	if len(h.retired) == 0 && len(h.d.orphaned) == 0 {
		h.d.mu.Unlock()
		return
	}
	slots := h.d.slots
	orphans := h.d.orphaned
	h.d.orphaned = nil
	h.d.mu.Unlock()
	protected := h.protected
	fillProtected(protected, slots)

	kept := h.retired[:0]
	freed := 0
	for _, r := range h.retired {
		if _, isProtected := protected[r.ptr]; isProtected {
			kept = append(kept, r)
			continue
		}
		r.f.Free(r.obj)
		freed++
	}
	// Zero the tail so freed entries do not pin their objects.
	for i := len(kept); i < len(h.retired); i++ {
		h.retired[i] = retiredObject{}
	}
	h.retired = kept

	// Stolen orphans: free the unprotected ones, return survivors to the
	// domain (they belong to no handle).
	var keptOrphans []retiredObject
	for _, r := range orphans {
		if _, isProtected := protected[r.ptr]; isProtected {
			keptOrphans = append(keptOrphans, r)
			continue
		}
		r.f.Free(r.obj)
		freed++
	}
	if len(keptOrphans) > 0 {
		h.d.mu.Lock()
		h.d.orphansLocked(keptOrphans)
		h.d.mu.Unlock()
	}
	// Left filled, the set would pin the addresses it saw until the next
	// scan — for a handle that is released or parked, indefinitely.
	clear(protected)
	if freed > 0 {
		h.d.reclaimed.Add(int64(freed))
		h.d.pending.Add(int64(-freed))
	}
}

// Release clears the handle's slots and hands its remaining retired
// objects to the domain-wide orphan list, reclaimed by any later handle's
// Scan or by Drain. The leftovers must never be pushed into another live
// handle's retire buffer: that buffer is owner-only state, and the owner
// may be running Retire or Scan on it concurrently.
func (h *Handle) Release() {
	for _, s := range h.slots {
		s.Clear()
	}
	h.Scan()
	h.d.mu.Lock()
	for i, other := range h.d.handles {
		if other == h {
			h.d.handles[i] = h.d.handles[len(h.d.handles)-1]
			h.d.handles = h.d.handles[:len(h.d.handles)-1]
			break
		}
	}
	// Retire the handle's (cleared) slots from the scan set so scan cost
	// tracks live handles, not handles ever issued. Rebuild rather than
	// mutate: snapshots taken by in-flight scans keep the old array.
	mine := make(map[*Slot]bool, len(h.slots))
	for _, s := range h.slots {
		mine[s] = true
	}
	kept := make([]*Slot, 0, len(h.d.slots)-len(h.slots))
	for _, s := range h.d.slots {
		if !mine[s] {
			kept = append(kept, s)
		}
	}
	h.d.slots = kept
	if len(h.retired) > 0 {
		h.d.orphansLocked(h.retired)
		h.retired = nil
	}
	h.d.mu.Unlock()
}

// fillProtected adds every address published in slots to set.
func fillProtected(set map[*byte]struct{}, slots []*Slot) {
	for _, s := range slots {
		if v := s.loadPtr(); v != nil {
			set[v] = struct{}{}
		}
	}
}

// orphansLocked appends items to the domain's ownerless retire list.
// Caller holds d.mu.
func (d *Domain) orphansLocked(items []retiredObject) {
	d.orphaned = append(d.orphaned, items...)
}

// Drain scans the orphaned retire list; safe to call at any time and
// typically used at structure teardown.
func (d *Domain) Drain() {
	d.mu.Lock()
	items := d.orphaned
	d.orphaned = nil
	slots := d.slots
	d.mu.Unlock()

	protected := make(map[*byte]struct{}, len(slots))
	fillProtected(protected, slots)
	var kept []retiredObject
	freed := 0
	for _, r := range items {
		if _, isProtected := protected[r.ptr]; isProtected {
			kept = append(kept, r)
			continue
		}
		r.f.Free(r.obj)
		freed++
	}
	if len(kept) > 0 {
		d.mu.Lock()
		d.orphaned = append(d.orphaned, kept...)
		d.mu.Unlock()
	}
	if freed > 0 {
		d.reclaimed.Add(int64(freed))
		d.pending.Add(int64(-freed))
	}
}
