package stack

import (
	"sync/atomic"

	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/reclaim"
)

// Elimination is the elimination-backoff stack of Hendler, Shavit &
// Yerushalmi (SPAA 2004): a Treiber stack whose contention fallback is an
// adaptive contend.Elimination array. When the head CAS fails, the
// operation backs off *into* the elimination array instead of merely
// waiting: a push and a pop that meet there cancel directly — the pop
// returns the push's value and neither touches the stack. Each elimination
// is a pair of operations completed with zero contention on the top
// pointer, so throughput grows with concurrency exactly where Treiber's
// stack degrades.
//
// Correctness rests on the observation that a push immediately followed by
// a pop leaves the stack unchanged, so an eliminated pair can be linearized
// back-to-back at the moment of their exchange.
//
// Progress: lock-free (the slow path always falls back to the Treiber CAS
// loop).
type Elimination[T any] struct {
	stack Treiber[T]
	arr   *contend.Elimination[elimOp[T]]

	// Elimination statistics for experiment T3. Recorded only when
	// statsEnabled to keep the hot path free of shared writes by default.
	// These count semantic eliminations (push met pop); the underlying
	// array's own Stats count raw exchanges, including push/push and
	// pop/pop meetings that both parties retry.
	statsEnabled atomic.Bool
	hits         atomic.Int64
	misses       atomic.Int64
}

type elimOp[T any] struct {
	value  T
	isPush bool
}

// NewElimination returns an elimination-backoff stack with the given
// maximum elimination-array width and per-visit spin budget. width <= 0
// selects 8; spins <= 0 selects 128. The array's active width adapts to
// the observed rendezvous rate (see contend.Elimination). WithReclaim and
// WithRecycling configure the backing Treiber stack's memory reclamation;
// eliminated pairs never touch the stack, so their values bypass
// reclamation entirely (and an eliminated push's prepared node goes
// straight back to the recycler).
func NewElimination[T any](width, spins int, opts ...Option) *Elimination[T] {
	s := &Elimination[T]{arr: contend.NewElimination[elimOp[T]](width, spins)}
	s.stack.initReclaim(buildOptions(opts))
	return s
}

// EnableStats turns on hit/miss accounting (a shared atomic per elimination
// attempt; leave off for throughput benchmarks of the stack itself).
func (s *Elimination[T]) EnableStats(on bool) {
	s.statsEnabled.Store(on)
}

// PinWidth fixes the elimination array's active width (clamped to the
// constructed maximum) and disables its adaptation — the knob the A1/A2
// ablations sweep, so width means a true fixed array width there.
func (s *Elimination[T]) PinWidth(w int) {
	s.arr.PinActiveWidth(w)
}

// Stats returns the number of successful eliminations (pairs count once per
// participant) and failed elimination visits recorded so far.
func (s *Elimination[T]) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// Push adds v to the top of the stack.
func (s *Elimination[T]) Push(v T) {
	n := s.stack.nodes.Get()
	n.value = v
	for {
		head := s.stack.head.Load()
		n.next = head
		if s.stack.head.CompareAndSwap(head, n) {
			if s.stack.nodes != nil {
				s.stack.size.Add(1)
			}
			return
		}
		// Contention: try to meet a pop in the elimination array.
		if op, ok := s.visit(elimOp[T]{value: v, isPush: true}); ok && !op.isPush {
			s.stack.nodes.Put(n) // never published; straight back to the pool
			return               // eliminated against a pop
		}
	}
}

// TryPop removes and returns the top element; ok is false if the stack was
// observed empty. A pop eliminated against a concurrent push returns that
// push's value without touching the stack.
func (s *Elimination[T]) TryPop() (v T, ok bool) {
	g := s.stack.mem.Enter()
	for {
		head := reclaim.Load(g, 0, &s.stack.head)
		if head == nil {
			break
		}
		if s.stack.head.CompareAndSwap(head, head.next) {
			v, ok = head.value, true
			if s.stack.nodes != nil {
				s.stack.size.Add(-1)
			}
			reclaim.Retire(g, s.stack.nodes, head)
			break
		}
		if op, okEx := s.visit(elimOp[T]{isPush: false}); okEx && op.isPush {
			v, ok = op.value, true // eliminated against a push
			break
		}
	}
	s.stack.mem.Exit(g)
	return v, ok
}

// visit performs one elimination attempt. It reports the exchanged
// operation and whether an exchange happened at all; callers must check
// role compatibility (push↔pop) before treating it as elimination.
// Incompatible exchanges (push↔push, pop↔pop) are harmless: both parties
// observe the mismatch and retry on the stack.
func (s *Elimination[T]) visit(op elimOp[T]) (elimOp[T], bool) {
	other, ok := s.arr.Exchange(op)
	if s.statsEnabled.Load() {
		if ok && other.isPush != op.isPush {
			s.hits.Add(1)
		} else {
			s.misses.Add(1)
		}
	}
	return other, ok
}

// Len counts the elements in the backing stack (see Treiber.Len caveats).
func (s *Elimination[T]) Len() int {
	return s.stack.Len()
}
