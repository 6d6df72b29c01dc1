package reclaim

import "unsafe"

// A Domain owns reclamation state for one data structure (or a family
// sharing it): the set of guards, the retired-object lists, and the
// reclaimed/pending gauges the benchmark reports surface.
type Domain interface {
	// NewGuard registers a new guard with the domain, with capacity for
	// the given number of hazard slots (ignored by non-publishing
	// schemes). Most callers should use a Pool instead of calling this
	// per operation: registration takes a domain-wide lock.
	NewGuard(slots int) Guard
	// Reclaimed returns the number of retired objects that have been
	// freed (their Freer has run).
	Reclaimed() int64
	// Pending returns the number of retired-but-not-yet-freed objects —
	// the "pending garbage" gauge of experiment F12. Always 0 for the GC
	// domain, which never defers anything.
	Pending() int64
	// Deferred reports whether Retire defers the Freer until no guard can
	// reach the object (true for EBR and HP). The GC domain returns
	// false: its Retire simply drops the object for the garbage
	// collector, so no Freer ever runs and node recycling is impossible.
	Deferred() bool
	// Name labels the scheme in benchmark reports: "gc", "ebr", or "hp".
	Name() string
}

// A Guard is one goroutine's session with a Domain. Its methods are
// owner-only: a guard must not be shared between concurrently running
// operations (Pool enforces this).
type Guard interface {
	// Enter opens a read-side critical section. For EBR this pins the
	// current epoch; retired objects cannot be freed while any guard that
	// might have seen them is inside a section. Enter/Exit nest.
	Enter()
	// Exit closes the critical section and (for HP) clears every hazard
	// slot.
	Exit()
	// Protect publishes ptr in hazard slot i; nil clears the slot. Only
	// hazard-pointer guards act on it. Publication alone is not safety:
	// the caller must revalidate the source pointer still holds ptr
	// before dereferencing (see Load for the canonical dance).
	Protect(i int, ptr any)
	// Protects reports whether this guard requires the Protect +
	// revalidate protocol before dereferencing shared pointers (true only
	// for hazard-pointer guards). Structures use it to skip the
	// publication dance under EBR/GC.
	Protects() bool
	// Retire schedules f.Free(obj) to run once no guard can reach the
	// object at ptr. Under HP, ptr must be the identical pointer readers
	// pass to Protect. obj is the word Free is handed back: ptr again
	// when f needs the object, nil when it does not — an EBR guard keeps
	// only {obj, f}, so with a nil obj it holds no reference to the
	// retired object while the retirement waits (doc.go says why that
	// matters). f must not be nil. The GC guard drops the object without
	// ever calling f.
	Retire(ptr, obj unsafe.Pointer, f Freer)
	// Release unregisters the guard from its domain, handing any
	// unfreed retirements to the domain. The guard must not be used
	// afterwards.
	Release()
}

// A Freer is the action half of a retirement: Free runs exactly once, on
// whichever goroutine's drain or scan finds the object unreachable, with
// the obj word its Retire call carried. Implemented by *Recycler (reset
// and pool the node), by structures that count or pool their own retired
// objects, and by FreeFunc. A Freer stored in a retirement is two words
// and no allocation; a closure over the object would be a heap object
// per Retire. (An alias of the unnamed interface type: internal/epoch and
// internal/hazard name the identical type, so a Freer passes through to
// the backend without an interface conversion.)
type Freer = interface{ Free(obj unsafe.Pointer) }

// FreeFunc adapts a plain func to a Freer for callers that really have
// one — tests, examples, harness code. It ignores the obj word; whatever
// the func needs, it has captured.
type FreeFunc func()

// Free calls f.
func (f FreeFunc) Free(unsafe.Pointer) { f() }

// NewGC returns the inert domain: Enter/Exit/Protect do nothing, Retire
// drops the object for Go's garbage collector, and the gauges read zero.
// It does not defer, so NewPool gives a structure built over it no pool:
// WithReclaim(NewGC()) is the same structure as no WithReclaim at all.
// Harnesses pass it to have a Domain to report for the GC configuration.
func NewGC() Domain { return gcDomain{} }

type gcDomain struct{}

func (gcDomain) NewGuard(int) Guard { return gcGuard{} }
func (gcDomain) Reclaimed() int64   { return 0 }
func (gcDomain) Pending() int64     { return 0 }
func (gcDomain) Deferred() bool     { return false }
func (gcDomain) Name() string       { return "gc" }

type gcGuard struct{}

func (gcGuard) Enter()           {}
func (gcGuard) Exit()            {}
func (gcGuard) Protect(int, any) {}
func (gcGuard) Protects() bool   { return false }
func (gcGuard) Release()         {}

func (gcGuard) Retire(_, _ unsafe.Pointer, _ Freer) {}
