// Package reclaim unifies the module's safe-memory-reclamation schemes —
// epoch-based reclamation (internal/epoch), hazard pointers
// (internal/hazard), and a zero-cost rely-on-the-GC noop — behind one
// small Domain/Guard interface that the lock-free structures accept via
// their WithReclaim constructor option.
//
// The survey treats reclamation as a core part of lock-free data structure
// design: an unlinked node may still be referenced by concurrent readers,
// so its memory can be recycled only once no reader can reach it. Go's
// garbage collector provides that guarantee for free, which is why the
// default is no domain at all — but running the real protocols against the
// real structures is what lets experiment F12 measure their read-side
// costs and garbage bounds, and it is what makes node *recycling* (a
// sync.Pool of retired nodes, see Recycler) safe: a pooled node is reused
// only after the domain declares it unreachable, restoring the
// never-reuse-while-referenced property the GC otherwise provides.
//
// The scheme trade-offs, as the survey frames them:
//
//   - EBR (Fraser): readers pin an epoch around whole operations; reads
//     inside the section cost nothing extra. Garbage is unbounded if a
//     reader stalls while pinned — one stuck goroutine halts all
//     reclamation in the domain.
//   - Hazard pointers (Michael): readers publish each pointer before
//     dereferencing it and revalidate the source. Every protected read
//     pays a store + fence + reload, but garbage is bounded even when
//     readers stall: a stalled thread pins at most its slots' objects.
//
// A structure is written against this package once, whatever domain it
// ends up with. It keeps one Pool (NewPool), brackets every operation
// with g := pool.Enter() ... pool.Exit(g), reads shared pointers with
// Load(g, ...) and hands unlinked nodes to Retire(g, ...). "This structure
// runs on plain GC" is decided in exactly one place: NewPool returns a nil
// *Pool for no domain or a non-deferring one, a nil pool's Enter returns
// a nil Guard, and Load, Retire and Exit take a nil guard as a plain load,
// a dropped node and a no-op. Each is an inlinable nil check in front of
// an outlined slow path, so the plain-GC configuration pays a compare,
// not a call — and no structure carries a second, GC-only copy of its
// algorithm for the checkers to miss. Code that must call a Guard method
// directly (Protects, Protect) checks g != nil first.
//
// Guards are not goroutine-safe; the Pool hands each to one operation at
// a time and amortises registration. Structures must never hold a guard
// section across a blocking wait — the dual structures exit their section
// before parking for exactly this reason.
//
// Progress guarantees: Enter/Exit/Protect are wait-free; Retire is
// wait-free with an amortised scan (HP) or drain (EBR) whose cost is
// bounded by the retired-list length. The consumers of this package are
// listed in ARCHITECTURE.md; experiment F12 and the S14 scenarios report
// each domain's reclaimed/pending gauges.
package reclaim
