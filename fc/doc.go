// Package fc offers flat-combining containers (Hendler, Incze, Shavit &
// Tzafrir, SPAA 2010): a queue and a stack whose concurrency comes from
// contend.Combiner, the module's shared flat-combining core. Instead of
// every thread fighting for the lock of a shared structure, threads publish
// their operations into a lock-free list and a single temporary "combiner"
// applies a whole batch against the plain sequential structure.
//
// The counter-intuitive result the paper established — and experiment F2/F4
// can show — is that one thread applying k operations back-to-back against
// warm caches often beats k threads applying one operation each through a
// contended lock or CAS, because the structure's cache lines stay resident
// with the combiner.
//
// The combining machinery itself (publication list, combiner role,
// completion records) lives in package contend, and the sequential core
// is the ring buffer behind queue.Mutex and stack.Mutex; this package
// contributes only the cds-interface adapters. The flat-combining
// priority queue and deque live with their families, in pqueue.FC and
// deque.FC.
//
// Progress guarantees: blocking in the combining sense — one thread holds
// the combiner role while the rest spin on their publication records; the
// batch application bounds every waiter's delay by the batch length.
package fc
