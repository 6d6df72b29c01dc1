package stack

import (
	"sync/atomic"

	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/reclaim"
)

// Treiber is R. K. Treiber's lock-free stack: a singly linked list whose
// head is replaced by compare-and-swap. Push and pop each retry a single
// CAS under contention, with randomized backoff between failures.
//
// Linearization points: a successful Push linearizes at its successful CAS
// of the head; a successful TryPop at its successful CAS; an empty TryPop at
// its load of a nil head.
//
// ABA safety: by default nodes are never recycled by the stack — a popped
// node is left to the garbage collector — so a head CAS can only succeed
// against the very node value it read (this is the standard way GC'd
// languages sidestep the ABA problem). Constructed WithReclaim, popped
// nodes are instead retired through the domain: pops protect the head per
// the domain's protocol (hazard publication or epoch pinning), which
// restores the same no-reuse-while-referenced guarantee and is what makes
// WithRecycling's node reuse sound — a pooled node is reissued only after
// no pop can still hold it, and a push's head CAS is ABA-tolerant (it
// never dereferences the expected head, and CAS success proves that node
// is the current top, whichever incarnation it is).
//
// The zero value is an empty stack (GC reclamation). Progress: lock-free
// (a failed CAS implies another operation succeeded).
type Treiber[T any] struct {
	head  atomic.Pointer[tnode[T]]
	mem   *reclaim.Pool
	nodes *reclaim.Recycler[tnode[T]]
	size  atomic.Int64 // maintained only when recycling (Len cannot traverse reused nodes)
}

type tnode[T any] struct {
	value T
	next  *tnode[T]
}

// NewTreiber returns an empty Treiber stack. See WithReclaim and
// WithRecycling for the memory-reclamation options.
func NewTreiber[T any](opts ...Option) *Treiber[T] {
	s := &Treiber[T]{}
	s.initReclaim(buildOptions(opts))
	return s
}

func (s *Treiber[T]) initReclaim(o options) {
	pool := reclaim.NewPool(o.dom, 1)
	s.mem = pool
	if pool != nil && o.recycle {
		s.nodes = reclaim.NewRecycler(func(n *tnode[T]) {
			var zero T
			n.value = zero
			n.next = nil
		})
	}
}

// Push adds v to the top of the stack.
func (s *Treiber[T]) Push(v T) {
	n := s.nodes.Get()
	n.value = v
	var b contend.Backoff
	for {
		head := s.head.Load()
		n.next = head
		if s.head.CompareAndSwap(head, n) {
			if s.nodes != nil {
				s.size.Add(1)
			}
			return
		}
		b.Pause()
	}
}

// TryPop removes and returns the top element; ok is false if the stack was
// observed empty.
func (s *Treiber[T]) TryPop() (v T, ok bool) {
	g := s.mem.Enter()
	var b contend.Backoff
	for {
		head := reclaim.Load(g, 0, &s.head)
		if head == nil {
			break
		}
		// head is protected: dereferencing next and value is safe even if
		// a concurrent pop retires it before our CAS resolves.
		if s.head.CompareAndSwap(head, head.next) {
			v, ok = head.value, true
			if s.nodes != nil {
				s.size.Add(-1)
			}
			reclaim.Retire(g, s.nodes, head)
			break
		}
		b.Pause()
	}
	s.mem.Exit(g)
	return v, ok
}

// Len counts the elements by traversing the list. The count is a consistent
// snapshot only in quiescent states; under concurrency it is best-effort.
// With node recycling enabled it is served from a counter instead: a
// traversal could follow a reused node into the wrong incarnation.
func (s *Treiber[T]) Len() int {
	if s.nodes != nil {
		return int(s.size.Load())
	}
	n := 0
	for node := s.head.Load(); node != nil; node = node.next {
		n++
	}
	return n
}
