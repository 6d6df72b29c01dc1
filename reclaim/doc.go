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
// algorithm for the checkers to miss (TestSeamInlines holds the compiler
// to it). Code that must call a Guard method directly (Protects, Protect)
// checks g != nil first.
//
// Guards are not goroutine-safe; the Pool hands each to one operation at
// a time and amortises registration. Checkout is goroutine-affine: a
// goroutine's home slot in the pool's ring is derived from its stack
// address at a granule coarser than any call path is deep, so a worker
// reacquires at its first probe the guard it parked — state word, retire
// bags and hazard slots still in its core's cache — and touches no other
// goroutine's slot; only goroutines whose stacks hash alike probe further.
// Structures must never hold a guard section across a blocking wait — the
// dual structures exit their section before parking for exactly this
// reason.
//
// A retirement is a record, not a callback: Guard.Retire takes the
// object's address, the word to hand back, and a Freer — an interface
// value, two words, implemented once by *Recycler (reset the node, pool
// it) and once by a no-op for nodes nobody recycles — so retiring
// allocates nothing, where a closure per retirement would cost a heap
// object on every unlink. The records wait in the retiring guard: an EBR
// guard's three epoch bags, an HP guard's retire list. They are freed by
// that guard's later retirements (every 64th attempts an epoch advance
// and drains aged bags, or scans), which means a parked guard holds its
// last few dozen records for as long as it stays parked — until the
// goroutine whose home it sits in comes back, or Pool.Drain hands them to
// the domain. Hence the rule the record form must keep: what waits is
// counted in Pending, but it pins no more memory than it needs. Under
// EBR a record holds the object only when its Freer will use it (a
// recycled node, whose reset cuts its links); the record of an unrecycled
// node holds nothing, so the node is garbage the moment it is unlinked,
// exactly as under plain GC — otherwise one parked guard's stale record
// would pin a node, and through its next pointers every node retired
// after it. Under HP a record must hold the address, because scans
// compare it with the slots. Drained bags keep their array, zeroed and
// only up to a few advance intervals of capacity, so neither a drained
// record nor a past burst stays resident.
//
// Progress: Enter and Exit make a bounded number of TryLock probes round
// the ring — one when the home slot hits — and never wait for another
// goroutine; only registering a fresh guard (Enter on an empty ring) or
// releasing a surplus one (Exit on a full ring) takes the domain's
// registry lock. Protect is wait-free. Retire appends to an owner-only
// buffer; every 64th call pays the amortised part — an HP scan, or an EBR
// advance attempt and drain — whose cost is bounded by the retired-list
// length plus the number of registered guards, itself bounded by the
// ring, and which holds the registry lock only to snapshot or walk that
// registry. The consumers of this package are listed in ARCHITECTURE.md;
// experiment F12 and the S14 scenarios report each domain's
// reclaimed/pending gauges, and BenchmarkSection and
// BenchmarkRetireRecycle in this package time the layer by itself.
package reclaim
