package contend

import "sync/atomic"

// Delegator is the combining-backend abstraction: a concurrency wrapper
// around a sequential structure S where threads submit operations and a
// single temporary combiner applies whole batches. Three backends satisfy
// it, differing only in how the pending operations are published and how
// the combiner role moves between threads:
//
//   - Combiner (flat combining, the default everywhere): operations are
//     CAS-pushed onto a detached list; whichever thread wins a busy flag
//     claims the whole list with one swap and applies it.
//   - CCSynch: a swap-based handoff list; each thread spins on the node it
//     received from the swap (one cache line per waiter) and the combiner
//     role is handed along the list at a bounded batch size.
//   - DSMSynch: the NUMA/DSM-friendly variant; each thread spins only on
//     the node it allocated itself, so the spin target is thread-local
//     memory and never migrates between caches.
//
// All three provide the same contract as Combiner.Do: Do returns after
// apply has executed against the structure, and results travel out through
// the closure's captured variables.
type Delegator[S any] interface {
	// Do submits apply and returns after it has executed against the
	// structure.
	Do(apply func(S))
	// Stats reports the backend's combining gauges. Counting is always on;
	// the counters are updated only by combiner threads at batch
	// boundaries, so the cost is amortised over the batch.
	Stats() DelegatorStats
}

// Backend selects a combining backend by name. Consumers that build
// their sequential structure internally (fc.Queue, fc.Stack, pqueue.FC,
// deque.FC, counter.Combining) take Options and pass them to
// NewDelegator. The zero value is flat combining, the default.
type Backend int

// Option configures NewDelegator.
type Option func(*Backend)

// WithBackend selects the backend NewDelegator builds.
func WithBackend(b Backend) Option { return func(p *Backend) { *p = b } }

const (
	// BackendFlatCombining selects Combiner (flat combining), the default.
	BackendFlatCombining Backend = iota
	// BackendCCSynch selects CCSynch.
	BackendCCSynch
	// BackendDSMSynch selects DSMSynch.
	BackendDSMSynch
)

// String names the backend the way the benchmark matrix labels it.
func (b Backend) String() string {
	switch b {
	case BackendCCSynch:
		return "CC-Synch"
	case BackendDSMSynch:
		return "DSM-Synch"
	default:
		return "FlatCombining"
	}
}

// Backends returns all combining backends in matrix order, for sweeps.
func Backends() []Backend {
	return []Backend{BackendFlatCombining, BackendCCSynch, BackendDSMSynch}
}

// NewDelegator constructs the chosen backend (flat combining unless an
// option says otherwise) around seq. After construction the structure
// must only be accessed through Do.
func NewDelegator[S any](seq S, opts ...Option) Delegator[S] {
	var b Backend
	for _, o := range opts {
		o(&b)
	}
	switch b {
	case BackendCCSynch:
		return NewCCSynch(seq)
	case BackendDSMSynch:
		return NewDSMSynch(seq)
	default:
		return NewCombiner(seq)
	}
}

// DelegatorStats is a snapshot of a backend's combining gauges. The
// interesting ratio is Ops/Batches (see AvgBatch): combining only pays for
// itself when batches are bigger than one, and batch size growing with the
// thread count is the signature of delegation working.
type DelegatorStats struct {
	// Batches counts combining passes that applied at least one operation.
	Batches uint64
	// Ops counts operations applied across all batches. Every Do call
	// contributes exactly one.
	Ops uint64
	// MaxBatch is the largest number of operations any single pass
	// applied. For CCSynch and DSMSynch it is bounded by the backend's
	// batch bound; flat combining's passes are bounded only by how much
	// piled up while the previous pass ran.
	MaxBatch uint64
	// Handoffs counts passes that ended by delegating pending work to
	// another thread. For CCSynch/DSMSynch this is the bound-hit handoff
	// (the next waiter inherits the combiner role mid-list); for flat
	// combining it counts passes after which the combining thread's own
	// operation was still pending with a predecessor combiner — the
	// analogous "someone else finishes my work" event.
	Handoffs uint64
}

// AvgBatch returns the mean operations per combining pass, 0 before any
// pass completed.
func (s DelegatorStats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Batches)
}

// delegStats is the shared counter block behind Stats on every backend.
// Only combiner threads touch it, once per pass, so plain atomic adds are
// cheap relative to the batch they account for.
type delegStats struct {
	batches  atomic.Uint64
	ops      atomic.Uint64
	maxBatch atomic.Uint64
	handoffs atomic.Uint64
}

func (d *delegStats) endBatch(served uint64, handoff bool) {
	if served == 0 {
		return
	}
	d.batches.Add(1)
	d.ops.Add(served)
	//cdsvet:ignore spinpace monotonic max update: a failed CAS means another batch raised the bar, so the loop converges in at most a few steps
	for {
		cur := d.maxBatch.Load()
		if served <= cur || d.maxBatch.CompareAndSwap(cur, served) {
			break
		}
	}
	if handoff {
		d.handoffs.Add(1)
	}
}

func (d *delegStats) snapshot() DelegatorStats {
	return DelegatorStats{
		Batches:  d.batches.Load(),
		Ops:      d.ops.Load(),
		MaxBatch: d.maxBatch.Load(),
		Handoffs: d.handoffs.Load(),
	}
}
