// Package contend is the shared contention-management layer for the
// concurrent data structures in this module. The survey's central
// performance lesson is that throughput under contention is decided less by
// the container's core algorithm than by how failed synchronization
// attempts are handled, and that three portable techniques cover the
// design space:
//
//   - Backoff: a thread that loses a CAS (or finds a lock held) waits a
//     randomized, exponentially growing interval before retrying, spreading
//     the retry stampede over time. Cheapest, always applicable, but the
//     waiting time is pure loss.
//   - Elimination: operations with inverse semantics (push/pop,
//     enqueue/dequeue-on-empty) meet in a side array and cancel directly,
//     turning the contention itself into useful parallelism. See
//     Exchanger, Elimination and Handoff/HandoffArray.
//   - Combining: threads publish operations and a single temporary
//     combiner applies a whole batch against the sequential structure with
//     warm caches, replacing p contended updates with one cache-resident
//     sweep. See Combiner (flat combining) and CombiningTree.
//
// # Combining backends
//
// Combining itself admits more than one protocol, so the batching engine
// is abstracted behind the Delegator interface: Do(apply) hands an
// operation (a closure over the sequential structure) to whichever thread
// currently holds the combining role, and Stats exposes batch/handoff
// gauges. Three interchangeable backends implement it:
//
//   - Combiner (flat combining, the default; Hendler, Incze, Shavit and
//     Tzafrir): threads CAS-push publication records onto a detached list
//     and one thread claims a busy flag, sweeping the whole list each
//     pass. Records are unordered and scanned in full, but a thread that
//     finds its record already present republishes for free — lowest
//     overhead at modest thread counts and under bursty arrival.
//   - CCSynch (Fatourou and Kallimanis): arriving threads atomically swap
//     a fresh node into a shared tail, forming an ordered FIFO request
//     list. Each waiter spins on its own node, and the combiner serves the
//     list in arrival order up to a bound before handing the role to the
//     next pending waiter. The ordered list means no re-scanning of
//     already-served records, so batches stay full as thread counts grow.
//   - DSMSynch: the NUMA-oriented variant of CC-Synch. A thread writes its
//     operation into its own node before linking it behind the
//     predecessor, so every spin happens on memory the waiting thread
//     itself allocated (thread-local by construction), at the cost of a
//     slightly heavier combiner epilogue.
//
// In the original algorithms each thread reuses a persistent node;
// this port allocates a fresh node per call and lets the garbage
// collector reclaim them, which preserves the protocol while dropping
// the thread-registration requirement.
//
// As a rule of thumb: flat combining wins at low to moderate contention
// (its publication list is cheapest when sweeps are short), while
// CC-Synch/DSM-Synch overtake it at high thread counts where flat
// combining's full-list re-scans and CAS-push contention dominate —
// the FIFO request list keeps per-op cost constant. DSM-Synch is
// preferred over CC-Synch on multi-socket machines where spinning on
// another thread's node means cross-socket traffic. The consumers
// (package fc, pqueue.FC, deque.FC, counter.Combining) pass their
// Options through to NewDelegator, so WithBackend makes the choice per
// instance; BackendFlatCombining is the zero value and the default.
//
// Every structure family in this module draws these mechanisms from here
// rather than keeping private copies: the spin locks and lock-free
// stack/queue retry loops use Backoff, the elimination stack and the
// elimination-backed Michael–Scott queue use the exchanger/handoff arrays,
// the combining containers (package fc, pqueue.FC, deque.FC,
// counter.Combining) and the combining-tree counter build on the
// combining cores, and the
// synchronous queue (dual.Sync) uses a HandoffArray as its rendezvous
// fast path — near-simultaneous Put/Take pairs cancel there before either
// side pays for parking a waiter.
//
// Choosing between the levers (also summarised in the README): backoff is
// the default when operations cannot cancel or batch; elimination wins for
// symmetric inverse-operation mixes on LIFO-like structures; combining wins
// when operations serialise anyway (queues, heaps, deques at saturation)
// because a single combiner with structure-resident cache lines beats many
// threads bouncing those lines.
package contend
