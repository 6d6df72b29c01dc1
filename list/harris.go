package list

import (
	"cmp"
	"sync/atomic"

	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/reclaim"
)

// Harris is the lock-free sorted list of Harris (DISC 2001) as refined by
// Michael (SPAA 2002): removal first marks the victim's next-reference
// (logical delete), then any operation that encounters a marked node snips
// it out while searching (physical delete, "helping"). No operation ever
// blocks: a failed CAS always means some other operation succeeded.
//
// Go cannot steal a mark bit from a pointer, so each node's successor is an
// immutable (next, marked) record swapped atomically as a unit — the exact
// semantics of Java's AtomicMarkableReference, at the cost of one small
// allocation per link mutation. Identity CAS on the record also subsumes
// the version check: marking a node replaces its record, so any CAS holding
// the stale record fails.
//
// Memory reclamation (WithReclaim): a node is retired by whichever
// operation wins the physical-unlink CAS — exactly once, because unlink
// replaces the unique predecessor record naming the node, and any other
// candidate's CAS holds a stale record and fails. Under HP the traversal
// follows Michael's hazard discipline: slot 0 protects pred, slot 1
// protects curr, and each advance revalidates that pred's record is
// unchanged (which proves curr was not yet unlinked, hence not yet
// retired, when the publication landed); a failed revalidation restarts
// from the head. The ref records themselves are never recycled, so they
// stay safe to read from stale snapshots. With WithRecycling, retired
// nodes are pooled and reused once the domain releases them.
//
// Linearization points: Add at the successful pred-link CAS; Remove at the
// successful marking CAS; Contains at its final ref load.
//
// Progress: Add/Remove lock-free; Contains wait-free (bounded by list
// length) under GC and EBR; under HP Contains shares the helping traversal
// and is lock-free.
type Harris[K cmp.Ordered] struct {
	head  *harrisNode[K] // sentinel
	mem   *reclaim.Pool
	nodes *reclaim.Recycler[harrisNode[K]]
	size  atomic.Int64 // maintained only when recycling (Len cannot traverse reused nodes)
}

type harrisNode[K cmp.Ordered] struct {
	key K
	ref atomic.Pointer[harrisRef[K]]
}

// harrisRef is an immutable (successor, mark) pair.
type harrisRef[K cmp.Ordered] struct {
	next   *harrisNode[K]
	marked bool
}

// NewHarris returns an empty lock-free sorted-list set. See WithReclaim
// and WithRecycling for the memory-reclamation options.
func NewHarris[K cmp.Ordered](opts ...Option) *Harris[K] {
	h := &harrisNode[K]{}
	h.ref.Store(&harrisRef[K]{})
	s := &Harris[K]{head: h}
	o := buildOptions(opts)
	pool := reclaim.NewPool(o.dom, 2)
	s.mem = pool
	if pool != nil && o.recycle {
		s.nodes = reclaim.NewRecycler(func(n *harrisNode[K]) {
			var zero K
			n.key = zero
			n.ref.Store(nil)
		})
	}
	return s
}

// find returns (pred, predRef, curr) such that predRef was loaded from
// pred, predRef.next == curr, pred is unmarked in that snapshot, and curr
// is the first node with key >= k (or nil). Marked nodes encountered on the
// way are physically removed (helping), and the snipper retires them into
// g. Under a protecting guard, pred lives in hazard slot 0 and curr in
// slot 1 for the window the caller receives.
func (s *Harris[K]) find(g reclaim.Guard, k K) (pred *harrisNode[K], predRef *harrisRef[K], curr *harrisNode[K]) {
	hp := g != nil && g.Protects()
retry:
	//cdsvet:ignore spinpace helping traversal: a restart follows a snip or revalidation failure, both of which prove another operation progressed
	for {
		pred = s.head
		predRef = pred.ref.Load()
		if hp {
			g.Protect(0, nil) // head is immortal; no protection needed
		}
		curr = predRef.next
		//cdsvet:ignore spinpace helping traversal: each iteration advances curr or snips a marked node, so the walk is bounded by list length
		for {
			if curr == nil {
				return pred, predRef, nil
			}
			if hp {
				// Publish curr, then revalidate pred's record: unchanged
				// means curr was still linked (hence unretired) when the
				// publication landed, so a retirer's scan must see it.
				g.Protect(1, curr)
				if pred.ref.Load() != predRef {
					continue retry
				}
			}
			currRef := curr.ref.Load()
			if currRef.marked {
				// Snip the logically deleted curr. On failure something
				// changed under us: restart from the head.
				newRef := &harrisRef[K]{next: currRef.next}
				if !pred.ref.CompareAndSwap(predRef, newRef) {
					continue retry
				}
				predRef = newRef
				reclaim.Retire(g, s.nodes, curr)
				curr = currRef.next
				continue
			}
			if curr.key >= k {
				return pred, predRef, curr
			}
			pred, predRef = curr, currRef
			if hp {
				g.Protect(0, curr) // pred moves into slot 0
			}
			curr = currRef.next
		}
	}
}

// Add inserts k, reporting false if it was already present.
func (s *Harris[K]) Add(k K) bool {
	g := s.mem.Enter()
	defer s.mem.Exit(g)
	var b contend.Backoff
	var n *harrisNode[K] // lazily prepared insert node, reused across retries
	for {
		pred, predRef, curr := s.find(g, k)
		if curr != nil && curr.key == k {
			if n != nil {
				s.nodes.Put(n) // never published; straight back to the pool
			}
			return false
		}
		if n == nil {
			n = s.nodes.Get()
			n.key = k
		}
		n.ref.Store(&harrisRef[K]{next: curr})
		if pred.ref.CompareAndSwap(predRef, &harrisRef[K]{next: n}) {
			if s.nodes != nil {
				s.size.Add(1)
			}
			return true
		}
		b.Pause() // lost the window; back off before re-resolving it
	}
}

// Remove deletes k, reporting false if it was absent.
func (s *Harris[K]) Remove(k K) bool {
	g := s.mem.Enter()
	defer s.mem.Exit(g)
	var b contend.Backoff
	for {
		pred, predRef, curr := s.find(g, k)
		if curr == nil || curr.key != k {
			return false
		}
		currRef := curr.ref.Load()
		if currRef.marked {
			// Concurrently removed after find's snapshot; retry to settle
			// who removed it (find will snip and miss it next round).
			continue
		}
		// Logical delete: replace curr's ref with a marked copy.
		if !curr.ref.CompareAndSwap(currRef, &harrisRef[K]{next: currRef.next, marked: true}) {
			b.Pause() // lost the marking race; back off before retrying
			continue
		}
		if s.nodes != nil {
			s.size.Add(-1)
		}
		// Physical delete is best-effort; find() helps later if this
		// fails, and whoever's unlink CAS succeeds does the retiring.
		if pred.ref.CompareAndSwap(predRef, &harrisRef[K]{next: currRef.next}) {
			reclaim.Retire(g, s.nodes, curr)
		}
		return true
	}
}

// Contains reports whether k is present. Wait-free under GC and EBR (one
// traversal, no helping, mark checked on the candidate); under HP it runs
// the protected find, whose helping makes it lock-free instead.
func (s *Harris[K]) Contains(k K) bool {
	g := s.mem.Enter()
	defer s.mem.Exit(g)
	if g != nil && g.Protects() {
		_, _, curr := s.find(g, k)
		return curr != nil && curr.key == k
	}
	curr := s.head.ref.Load().next
	for curr != nil && curr.key < k {
		curr = curr.ref.Load().next
	}
	return curr != nil && curr.key == k && !curr.ref.Load().marked
}

// Len counts unmarked nodes via traversal (quiescent-exact). With node
// recycling enabled it is served from a counter instead: a traversal
// could follow a reused node into the wrong incarnation.
func (s *Harris[K]) Len() int {
	if s.nodes != nil {
		return int(s.size.Load())
	}
	g := s.mem.Enter()
	defer s.mem.Exit(g)
	n := 0
	for curr := s.head.ref.Load().next; curr != nil; {
		ref := curr.ref.Load()
		if !ref.marked {
			n++
		}
		curr = ref.next
	}
	return n
}
