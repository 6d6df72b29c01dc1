package skiplist

import (
	"cmp"
	"sync/atomic"

	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/reclaim"
)

// LockFree is the lock-free skip list of Herlihy & Shavit (ch. 14.4), a
// streamlined Fraser-style design. Each node's per-level successor is an
// atomically swappable (next, marked) record — the AtomicMarkableReference
// encoding also used by list.Harris. The bottom level is the truth: a key
// is in the set iff an unmarked level-0 node holds it. Insertion links
// bottom-up (level 0 is the linearization point); removal marks top-down
// and linearizes at the level-0 mark; traversals snip marked nodes as they
// pass (helping).
//
// Memory reclamation (WithReclaim): the level-0 marker — the operation
// that logically removed the key — retires the victim after its unlinking
// traversal completes, so each node is retired exactly once. Under HP the
// descent keeps pred in hazard slot 0 and curr in slot 1, revalidating
// pred's record after each publication. There is no recycling option (see
// WithReclaim).
//
// Progress: Add/Remove lock-free; Contains wait-free under GC and EBR
// (under HP it shares the helping traversal and is lock-free).
type LockFree[K cmp.Ordered] struct {
	head   *lfNode[K]
	levels *levelGen
	size   atomic.Int64
	mem    *reclaim.Pool
}

type lfNode[K cmp.Ordered] struct {
	key      K
	isHead   bool
	topLevel int
	next     [maxLevel]atomic.Pointer[lfRef[K]]
}

// lfRef is an immutable (successor, mark) pair for one level.
type lfRef[K cmp.Ordered] struct {
	next   *lfNode[K]
	marked bool
}

func newLFNode[K cmp.Ordered](k K, topLevel int) *lfNode[K] {
	n := &lfNode[K]{key: k, topLevel: topLevel}
	for i := 0; i <= topLevel; i++ {
		n.next[i].Store(&lfRef[K]{})
	}
	return n
}

// NewLockFree returns an empty lock-free skip-list set. See WithReclaim
// for the memory-reclamation option.
func NewLockFree[K cmp.Ordered](opts ...Option) *LockFree[K] {
	h := &lfNode[K]{isHead: true, topLevel: maxLevel - 1}
	for i := 0; i < maxLevel; i++ {
		h.next[i].Store(&lfRef[K]{})
	}
	s := &LockFree[K]{head: h, levels: newLevelGen()}
	s.mem = reclaim.NewPool(buildOptions(opts).dom, 2)
	return s
}

// find locates the per-level windows for k, snipping marked nodes it
// passes. preds/succs/predRefs are filled for levels [0, maxLevel);
// predRefs[l] is the exact snapshot such that preds[l].next[l] held it with
// predRefs[l].next == succs[l]. found reports an unmarked level-0 match.
// Under a protecting guard the descending pred stays in hazard slot 0 and
// the current probe in slot 1, revalidated against pred's record after
// each publication (the head is immortal and needs none).
func (s *LockFree[K]) find(g reclaim.Guard, k K, preds, succs *[maxLevel]*lfNode[K], predRefs *[maxLevel]*lfRef[K]) bool {
	hp := g != nil && g.Protects()
retry:
	for {
		pred := s.head
		if hp {
			g.Protect(0, nil)
		}
		for level := maxLevel - 1; level >= 0; level-- {
			predRef := pred.next[level].Load()
			if predRef.marked {
				// pred is being removed at this level (marking proceeds
				// top-down, so a node that guided the descent can be marked
				// below). Using a marked snapshot in the CASes ahead would
				// overwrite the mark and resurrect the node — restart.
				continue retry
			}
			curr := predRef.next
			for curr != nil {
				if hp {
					g.Protect(1, curr)
					if pred.next[level].Load() != predRef {
						continue retry
					}
				}
				currRef := curr.next[level].Load()
				if currRef.marked {
					// Help: physically remove curr at this level. On
					// success, keep the exact record we installed as the
					// new snapshot — reloading here could pick up an
					// unrelated concurrent relink and desynchronise the
					// (pred, curr) window.
					newRef := &lfRef[K]{next: currRef.next}
					if !pred.next[level].CompareAndSwap(predRef, newRef) {
						continue retry
					}
					predRef = newRef
					curr = newRef.next
					continue
				}
				if curr.key < k {
					pred, predRef = curr, currRef
					if hp {
						g.Protect(0, curr) // pred moves into slot 0
					}
					curr = currRef.next
					continue
				}
				break
			}
			preds[level] = pred
			predRefs[level] = predRef
			succs[level] = curr
		}
		return succs[0] != nil && succs[0].key == k
	}
}

// Add inserts k, reporting false if it was already present.
func (s *LockFree[K]) Add(k K) bool {
	g := s.mem.Enter()
	defer s.mem.Exit(g)
	topLevel := s.levels.next() - 1
	var b contend.Backoff
	var preds, succs [maxLevel]*lfNode[K]
	var predRefs [maxLevel]*lfRef[K]
	for {
		if s.find(g, k, &preds, &succs, &predRefs) {
			return false
		}
		n := newLFNode(k, topLevel)
		for level := 0; level <= topLevel; level++ {
			n.next[level].Store(&lfRef[K]{next: succs[level]})
		}
		// Level 0 is the linearization point.
		if !preds[0].next[0].CompareAndSwap(predRefs[0], &lfRef[K]{next: n}) {
			b.Pause() // lost the window; back off before re-resolving it
			continue  // window changed; retry whole insert
		}
		s.size.Add(1)

		// Link the upper levels; helpers may be deleting n concurrently.
		for level := 1; level <= topLevel; level++ {
			for {
				nRef := n.next[level].Load()
				if nRef.marked {
					return true // n was removed while we linked; stop
				}
				succ := succs[level]
				if nRef.next != succ {
					// Refresh n's forward pointer to the current window.
					if !n.next[level].CompareAndSwap(nRef, &lfRef[K]{next: succ}) {
						continue
					}
				}
				if preds[level].next[level].CompareAndSwap(predRefs[level], &lfRef[K]{next: n}) {
					break
				}
				b.Pause() // lost the window; back off before re-resolving it
				// Window stale: recompute and retry this level.
				if s.find(g, k, &preds, &succs, &predRefs); succs[0] != n {
					return true // n already unlinked; stop
				}
			}
		}
		return true
	}
}

// Remove deletes k, reporting false if it was absent.
func (s *LockFree[K]) Remove(k K) bool {
	g := s.mem.Enter()
	defer s.mem.Exit(g)
	var preds, succs [maxLevel]*lfNode[K]
	var predRefs [maxLevel]*lfRef[K]
	if !s.find(g, k, &preds, &succs, &predRefs) {
		return false
	}
	victim := succs[0]

	// Mark the upper levels top-down (idempotent; racers may help).
	for level := victim.topLevel; level >= 1; level-- {
		ref := victim.next[level].Load()
		for !ref.marked {
			victim.next[level].CompareAndSwap(ref, &lfRef[K]{next: ref.next, marked: true})
			ref = victim.next[level].Load()
		}
	}

	// Level 0 mark decides who removed it: the linearization point.
	var b contend.Backoff
	for {
		ref := victim.next[0].Load()
		if ref.marked {
			return false // another remover won
		}
		if victim.next[0].CompareAndSwap(ref, &lfRef[K]{next: ref.next, marked: true}) {
			s.size.Add(-1)
			// Physically unlink via a helping traversal, then retire: the
			// level-0 marker is the unique logical remover, so the victim
			// is retired exactly once.
			s.find(g, k, &preds, &succs, &predRefs)
			reclaim.Retire(g, nil, victim)
			return true
		}
		b.Pause() // lost the marking race; back off before retrying
	}
}

// Contains reports whether k is present. Wait-free under GC and EBR: it
// reads through marks without helping. Under HP it runs the protected
// find instead (lock-free).
func (s *LockFree[K]) Contains(k K) bool {
	g := s.mem.Enter()
	defer s.mem.Exit(g)
	if g != nil && g.Protects() {
		var preds, succs [maxLevel]*lfNode[K]
		var predRefs [maxLevel]*lfRef[K]
		return s.find(g, k, &preds, &succs, &predRefs)
	}
	pred := s.head
	var curr *lfNode[K]
	for level := maxLevel - 1; level >= 0; level-- {
		curr = pred.next[level].Load().next
		for curr != nil {
			currRef := curr.next[level].Load()
			if currRef.marked {
				curr = currRef.next // read past logically deleted nodes
				continue
			}
			if curr.key < k {
				pred = curr
				curr = currRef.next
				continue
			}
			break
		}
		if curr != nil && curr.key == k {
			return !curr.next[0].Load().marked
		}
	}
	return false
}

// Len reports the number of keys (atomic counter; exact in quiescent
// states).
func (s *LockFree[K]) Len() int {
	return int(s.size.Load())
}
