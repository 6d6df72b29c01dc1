// Package locks implements the spin-lock and queue-lock algorithms from the
// mutual-exclusion section of the concurrent data structures literature:
// test-and-set (TAS), test-and-test-and-set (TTAS), TTAS with exponential
// backoff, ticket locks, the MCS and CLH queue locks, Peterson's two-thread
// lock, a reader–writer spin lock, and a sequence lock.
//
// These exist for two reasons. First, several of the concurrent containers
// in this module (fine-grained lists, striped maps, lazy skip lists) are
// parameterised over a lock; the survey's point that lock choice dominates
// scalability is reproducible by swapping implementations. Second, the
// classic "lock scalability" figure — throughput of a tiny critical section
// as threads grow — is one of the canonical experiments this module
// regenerates (experiment F1; `cdsbench -list` prints the experiment index).
//
// # Which lock when
//
//   - TASLock: simplest; collapses under contention because every spin is a
//     cache-coherence write.
//   - TTASLock: spins on a local cached read, writing only when the lock
//     looks free; much better, still bursty at release.
//   - BackoffLock: TTAS plus randomized exponential backoff; good general
//     spin lock when fairness does not matter.
//   - TicketLock: FIFO-fair, two fetch-and-adds; all waiters spin on one
//     word, so it degrades beyond a few cores.
//   - MCSLock / CLHLock: queue locks; each waiter spins on its own cache
//     line, giving flat scalability and FIFO fairness at the price of a
//     queue-node handle.
//
// All simple locks implement sync.Locker. The queue locks expose
// handle-based APIs (the handle is the queue node) plus a Locker adapter.
//
// Spinning in Go: goroutines are scheduled cooperatively onto OS threads, so
// unbounded busy-waiting can starve the holder of the lock off its core.
// Every spin loop here escalates to runtime.Gosched via contend.Backoff (the
// module-wide contention-management layer in package contend), which keeps
// the algorithms honest while remaining safe under GOMAXPROCS < goroutines.
package locks
