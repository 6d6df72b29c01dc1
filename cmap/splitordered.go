package cmap

import (
	"math/bits"
	"sync/atomic"

	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/reclaim"
)

const (
	// soMaxSegments bounds the bucket directory at 2^soMaxSegments-1
	// buckets (segment s holds 2^s slots).
	soMaxSegments = 26
	// soLoadFactor triggers a bucket-count doubling when
	// size > soLoadFactor × bucketCount.
	soLoadFactor = 2
)

// SplitOrdered is the lock-free extensible hash table of Shalev & Shavit
// ("Split-Ordered Lists: Lock-Free Extensible Hash Tables", JACM 2006).
//
// All items live in a single Harris-style lock-free linked list, ordered by
// the bit-reversal of their hash. In that order, the items of bucket b
// under table size 2^i form a contiguous run, and doubling the table splits
// each run in place: growth never moves an item — it only inserts a new
// bucket sentinel node at the split point ("recursive split-ordering").
// The bucket directory is a lazily allocated array of pointers to sentinel
// nodes, initialised on first touch by inserting the sentinel via the
// bucket's parent (the index with its top bit cleared).
//
// Key encoding: a regular item hashes to h and gets split-order key
// reverse(h) | 1; the sentinel of bucket b gets reverse(b), whose low bit
// is 0 — sentinels sort immediately before the items of their bucket and
// can never collide with an item.
//
// Memory reclamation (WithReclaim): deleted item nodes are retired by
// whichever operation wins the physical-unlink CAS (exactly once — see
// list.Harris for the argument); sentinels are never removed and so never
// retired. Under HP the keyed operations protect their (pred, curr)
// window via Michael's two-hazard discipline; Range publishes nothing
// (its weakly consistent walk cannot hold hazards across the whole list),
// which is why WithRecycling is EBR-only.
//
// Linearization points: Load at its last ref load; Store (update) at its
// value store; Store/LoadOrStore (insert) at the link CAS; Delete at the
// marking CAS.
//
// Progress: lock-free for all operations (Load is wait-free bounded by
// bucket-run length under GC and EBR).
type SplitOrdered[K comparable, V any] struct {
	hash        func(K) uint64
	segments    [soMaxSegments]atomic.Pointer[soSegment[K, V]]
	bucketCount atomic.Uint64 // current table size, always a power of two
	size        atomic.Int64
	mem         *reclaim.Pool
	nodes       *reclaim.Recycler[soNode[K, V]]
}

type soSegment[K comparable, V any] struct {
	slots []atomic.Pointer[soNode[K, V]]
}

type soNode[K comparable, V any] struct {
	soKey uint64 // split-order key; LSB=1 ⇒ regular item, LSB=0 ⇒ sentinel
	key   K      // zero for sentinels
	val   atomic.Pointer[V]
	ref   atomic.Pointer[soRef[K, V]]
}

// soRef is an immutable (successor, mark) pair, as in list.Harris.
type soRef[K comparable, V any] struct {
	next   *soNode[K, V]
	marked bool
}

// NewSplitOrdered returns an empty split-ordered hash map with an initial
// table size of 2 buckets. See WithReclaim and WithRecycling for the
// memory-reclamation options.
func NewSplitOrdered[K comparable, V any](opts ...Option) *SplitOrdered[K, V] {
	m := &SplitOrdered[K, V]{hash: newHasher[K]().hash}
	m.bucketCount.Store(2)
	// Bucket 0's sentinel is the list head: soKey 0.
	head := &soNode[K, V]{}
	head.ref.Store(&soRef[K, V]{})
	seg0 := &soSegment[K, V]{slots: make([]atomic.Pointer[soNode[K, V]], 1)}
	seg0.slots[0].Store(head)
	m.segments[0].Store(seg0)

	o := buildOptions(opts)
	m.mem = reclaim.NewPool(o.dom, 2)
	if o.recycle {
		// Range cannot hold hazards across its walk, so recycling needs a
		// non-protecting guard: EBR only.
		g := m.mem.Enter()
		if g != nil && !g.Protects() {
			m.nodes = reclaim.NewRecycler(func(n *soNode[K, V]) {
				var zeroK K
				n.soKey = 0
				n.key = zeroK
				n.val.Store(nil)
				n.ref.Store(nil)
			})
		}
		m.mem.Exit(g)
	}
	return m
}

func soRegularKey(h uint64) uint64  { return bits.Reverse64(h) | 1 }
func soSentinelKey(b uint64) uint64 { return bits.Reverse64(b) }

// bucketSlot returns the directory slot for bucket b, allocating its
// segment on demand.
func (m *SplitOrdered[K, V]) bucketSlot(b uint64) *atomic.Pointer[soNode[K, V]] {
	s := bits.Len64(b+1) - 1
	seg := m.segments[s].Load()
	if seg == nil {
		fresh := &soSegment[K, V]{slots: make([]atomic.Pointer[soNode[K, V]], 1<<s)}
		if m.segments[s].CompareAndSwap(nil, fresh) {
			seg = fresh
		} else {
			seg = m.segments[s].Load()
		}
	}
	return &seg.slots[b+1-(1<<uint(s))]
}

// getBucket returns bucket b's sentinel node, initialising the bucket (and
// recursively its parents) if this is its first use.
func (m *SplitOrdered[K, V]) getBucket(g reclaim.Guard, b uint64) *soNode[K, V] {
	slot := m.bucketSlot(b)
	if n := slot.Load(); n != nil {
		return n
	}
	return m.initBucket(g, b, slot)
}

func (m *SplitOrdered[K, V]) initBucket(g reclaim.Guard, b uint64, slot *atomic.Pointer[soNode[K, V]]) *soNode[K, V] {
	// Parent: clear the most significant set bit. Bucket 0 exists from
	// construction, so the recursion terminates.
	parent := b &^ (uint64(1) << (bits.Len64(b) - 1))
	parentSentinel := m.getBucket(g, parent)

	soKey := soSentinelKey(b)
	var bo contend.Backoff
	for {
		pred, predRef, curr, found := m.find(g, parentSentinel, soKey, nil)
		if found {
			// Another initialiser (or an earlier epoch) inserted it.
			slot.CompareAndSwap(nil, curr)
			return slot.Load()
		}
		// Sentinels are immortal: always fresh allocations, never pooled.
		n := &soNode[K, V]{soKey: soKey}
		n.ref.Store(&soRef[K, V]{next: curr})
		if pred.ref.CompareAndSwap(predRef, &soRef[K, V]{next: n}) {
			slot.CompareAndSwap(nil, n)
			return slot.Load()
		}
		bo.Pause() // lost the window; back off before re-resolving it
	}
}

// find locates the window for soKey starting at start, snipping marked
// nodes on the way (helping; the snipper retires them into g). For regular
// keys, key must point at the lookup key and find scans through
// hash-colliding items until it matches key equality; for sentinels key is
// nil and soKey equality suffices.
//
// Returns pred/predRef (an unmarked snapshot with predRef.next == curr) and
// curr: the matching node when found, otherwise the first node with
// soKey strictly greater (insertion point). Under a protecting guard, pred
// lives in hazard slot 0 and curr in slot 1 for the window returned; the
// start sentinel needs no protection (sentinels are immortal).
func (m *SplitOrdered[K, V]) find(g reclaim.Guard, start *soNode[K, V], soKey uint64, key *K) (pred *soNode[K, V], predRef *soRef[K, V], curr *soNode[K, V], found bool) {
	hp := g != nil && g.Protects()
retry:
	//cdsvet:ignore spinpace helping traversal: a restart follows a snip or revalidation failure, both of which prove another operation progressed
	for {
		pred = start
		predRef = pred.ref.Load()
		if hp {
			g.Protect(0, nil)
		}
		curr = predRef.next
		//cdsvet:ignore spinpace helping traversal: each iteration advances curr or snips a marked node, so the walk is bounded by list length
		for {
			if curr == nil {
				return pred, predRef, nil, false
			}
			if hp {
				// Publish curr, then revalidate pred's record (see
				// list.Harris.find for why this orders the publication
				// before any retirement of curr).
				g.Protect(1, curr)
				if pred.ref.Load() != predRef {
					continue retry
				}
			}
			currRef := curr.ref.Load()
			if currRef.marked {
				newRef := &soRef[K, V]{next: currRef.next}
				if !pred.ref.CompareAndSwap(predRef, newRef) {
					continue retry
				}
				predRef = newRef
				reclaim.Retire(g, m.nodes, curr)
				curr = currRef.next
				continue
			}
			switch {
			case curr.soKey > soKey:
				return pred, predRef, curr, false
			case curr.soKey == soKey:
				if key == nil || curr.key == *key {
					return pred, predRef, curr, true
				}
				// Hash collision: different key, same split-order key.
				// Keep scanning the run of equal keys.
			}
			pred, predRef = curr, currRef
			if hp {
				g.Protect(0, curr) // pred moves into slot 0
			}
			curr = currRef.next
		}
	}
}

// startFor returns the sentinel to search from for hash h under the
// current table size.
func (m *SplitOrdered[K, V]) startFor(g reclaim.Guard, h uint64) *soNode[K, V] {
	b := h & (m.bucketCount.Load() - 1)
	return m.getBucket(g, b)
}

// Load returns the value stored for k.
func (m *SplitOrdered[K, V]) Load(k K) (v V, ok bool) {
	g := m.mem.Enter()
	defer m.mem.Exit(g)
	h := m.hash(k)
	_, _, curr, found := m.find(g, m.startFor(g, h), soRegularKey(h), &k)
	if !found {
		return v, false
	}
	return *curr.val.Load(), true
}

// Store sets the value for k, inserting it if absent.
func (m *SplitOrdered[K, V]) Store(k K, v V) {
	m.upsert(k, v, true)
}

// LoadOrStore returns the existing value for k if present; otherwise it
// stores and returns v.
func (m *SplitOrdered[K, V]) LoadOrStore(k K, v V) (actual V, loaded bool) {
	return m.upsert(k, v, false)
}

// upsert implements Store (overwrite=true) and LoadOrStore (overwrite=false).
func (m *SplitOrdered[K, V]) upsert(k K, v V, overwrite bool) (actual V, loaded bool) {
	g := m.mem.Enter()
	defer m.mem.Exit(g)
	h := m.hash(k)
	soKey := soRegularKey(h)
	var b contend.Backoff
	var n *soNode[K, V] // lazily prepared insert node, reused across retries
	for {
		start := m.startFor(g, h)
		pred, predRef, curr, found := m.find(g, start, soKey, &k)
		if found {
			if n != nil {
				m.nodes.Put(n) // never published; straight back to the pool
			}
			if !overwrite {
				return *curr.val.Load(), true
			}
			curr.val.Store(&v)
			// If a concurrent Delete marked the node we cannot tell whether
			// it observed our value; retry so the Store takes effect after
			// the Delete in every linearization.
			if curr.ref.Load().marked {
				n = nil
				continue
			}
			return v, true
		}
		if n == nil {
			n = m.nodes.Get()
			n.soKey = soKey
			n.key = k
		}
		n.val.Store(&v)
		n.ref.Store(&soRef[K, V]{next: curr})
		if pred.ref.CompareAndSwap(predRef, &soRef[K, V]{next: n}) {
			m.grew()
			return v, false
		}
		b.Pause() // lost the window; back off before re-resolving it
	}
}

// Delete removes k, reporting whether it was present.
func (m *SplitOrdered[K, V]) Delete(k K) bool {
	g := m.mem.Enter()
	defer m.mem.Exit(g)
	h := m.hash(k)
	soKey := soRegularKey(h)
	var b contend.Backoff
	for {
		start := m.startFor(g, h)
		pred, predRef, curr, found := m.find(g, start, soKey, &k)
		if !found {
			return false
		}
		currRef := curr.ref.Load()
		if currRef.marked {
			continue // raced with another deleter; re-resolve via find
		}
		if !curr.ref.CompareAndSwap(currRef, &soRef[K, V]{next: currRef.next, marked: true}) {
			b.Pause() // lost the marking race; back off before retrying
			continue
		}
		// Physical unlink is best-effort; find() helps later on failure,
		// and whoever's unlink CAS succeeds does the retiring.
		if pred.ref.CompareAndSwap(predRef, &soRef[K, V]{next: currRef.next}) {
			reclaim.Retire(g, m.nodes, curr)
		}
		m.size.Add(-1)
		return true
	}
}

// Len reports the number of entries (atomic counter; exact in quiescent
// states).
func (m *SplitOrdered[K, V]) Len() int {
	return int(m.size.Load())
}

// Range calls f for every entry until f returns false. The iteration is
// weakly consistent: it reflects some interleaving of concurrent updates,
// never locks, and never blocks writers. Under EBR the whole walk runs
// inside one pinned section; under HP it publishes no hazards (node
// recycling is disabled there, so retired nodes remain type-stable
// GC-managed memory the walk may harmlessly read through).
func (m *SplitOrdered[K, V]) Range(f func(K, V) bool) {
	g := m.mem.Enter()
	defer m.mem.Exit(g)
	head := m.getBucket(g, 0)
	for curr := head.ref.Load().next; curr != nil; {
		ref := curr.ref.Load()
		if !ref.marked && curr.soKey&1 == 1 {
			if !f(curr.key, *curr.val.Load()) {
				return
			}
		}
		curr = ref.next
	}
}

// grew bumps the size and doubles the bucket count when the load factor
// exceeds the threshold. The doubling is a single CAS: directory segments
// and sentinels materialise lazily afterwards.
func (m *SplitOrdered[K, V]) grew() {
	sz := m.size.Add(1)
	n := m.bucketCount.Load()
	if sz > int64(n)*soLoadFactor && n < (1<<(soMaxSegments-1)) {
		m.bucketCount.CompareAndSwap(n, 2*n)
	}
}
