package main

import (
	"time"

	"github.com/cds-suite/cds/cmap"
	"github.com/cds-suite/cds/queue"
	"github.com/cds-suite/cds/reclaim"
	"github.com/cds-suite/cds/skiplist"
	"github.com/cds-suite/cds/stack"
)

// Index ops are structure<<structShift | kind<<opShift | key.
const (
	structShift = 28
	kindMask    = 1<<(structShift-opShift) - 1
)

const (
	onMap uint32 = iota
	onSkip
	onQueue
	onStack
)

const (
	kindRead uint32 = iota
	kindInsert
	kindRemove
)

const (
	indexKeys    = 1 << 14
	pairsPrefill = 1024 // items in the queue and the stack before a trial
	prefillOwner = 0xFF // producer id of the pre-filled items
)

// indexSpec is what differs between index_read and lockfree_churn.
type indexSpec struct {
	name    string
	updates float64 // share of map and skip-list ops that insert or remove
	pairs   bool    // also run the queue and the stack, round-robin over the four
}

var (
	indexReadSpec     = indexSpec{name: "index_read", updates: 0.05}
	lockfreeChurnSpec = indexSpec{name: "lockfree_churn", updates: 0.5, pairs: true}
)

// indexInst is the lock-free map and skip list (and, on lockfree_churn,
// queue and stack) sharing one reclamation domain.
type indexInst struct {
	spec    *indexSpec
	dom     reclaim.Domain
	m       *cmap.SplitOrdered[uint64, uint64]
	s       *skiplist.LockFree[uint64]
	q       *queue.MS[uint64]
	st      *stack.Treiber[uint64]
	workers []*worker
	state   []*indexState
}

// indexState is what one goroutine knows about the structures without
// asking them. Goroutine g alone updates the keys ≡ g (mod G), so its
// shadow of those keys is exact and every boolean an update returns is
// predictable; for the queue and the stack it keeps count and sum of
// what it put in and took out.
type indexState struct {
	in            *indexInst
	g, G          int
	inMap, inSkip []bool
	seq           uint64
	lastSeen      []uint64 // queue: highest sequence dequeued so far, per producer
	qIn, qOut     tally
	stIn, stOut   tally
	_             [64]byte
}

type tally struct{ n, sum uint64 }

func (t *tally) add(v uint64)  { t.n++; t.sum += v }
func (t *tally) merge(o tally) { t.n += o.n; t.sum += o.sum }

// present is the initial content: about half of the keys.
func present(k uint64) bool { return mix64(k)&1 == 0 }

// build makes the structures on one EBR domain (the twin on the GC
// domain, which turns guards and retiring into no-ops), inserts the
// initial keys and generates every goroutine's stream.
func (sp *indexSpec) build(cfg *config, trial int, twin bool) instance {
	in := &indexInst{spec: sp, dom: reclaim.NewEBR()}
	if twin {
		in.dom = reclaim.NewGC()
	}
	in.m = cmap.NewSplitOrdered[uint64, uint64](cmap.WithReclaim(in.dom))
	in.s = skiplist.NewLockFree[uint64](skiplist.WithReclaim(in.dom))
	for k := uint64(0); k < indexKeys; k++ {
		if present(k) {
			in.m.Store(k, valueOf(k))
			in.s.Add(k)
		}
	}
	if sp.pairs {
		in.q = queue.NewMS[uint64](queue.WithReclaim(in.dom), queue.WithRecycling())
		in.st = stack.NewTreiber[uint64](stack.WithReclaim(in.dom), stack.WithRecycling())
		for i := uint64(1); i <= pairsPrefill; i++ {
			in.q.Enqueue(prefillOwner<<40 | i)
			in.st.Push(prefillOwner<<40 | i)
		}
	}
	for g := 0; g < cfg.g; g++ {
		rng := streamSeed(cfg.seed, sp.name, trial, g)
		in.workers = append(in.workers, &worker{stream: sp.stream(&rng, cfg.streamLen, g, cfg.g), rng: rng})
		st := &indexState{in: in, g: g, G: cfg.g, inMap: make([]bool, indexKeys), inSkip: make([]bool, indexKeys), lastSeen: make([]uint64, prefillOwner+1)}
		for k := range st.inMap {
			st.inMap[k] = present(uint64(k))
			st.inSkip[k] = st.inMap[k]
		}
		in.state = append(in.state, st)
	}
	return in
}

// stream draws uniform keys. An update's key is moved to the nearest
// key the goroutine owns.
func (sp *indexSpec) stream(rng *splitmix, n, g, G int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		on := uint32(rng.next() & 1)
		if sp.pairs {
			on = uint32(i) & 3
		}
		if on >= onQueue {
			out[i] = on << structShift
			continue
		}
		k := rng.next() % indexKeys
		kind := kindRead
		if u := rng.float(); u < sp.updates {
			kind = kindInsert
			if u < sp.updates/2 {
				kind = kindRemove
			}
			k = k - k%uint64(G) + uint64(g)
			if k >= indexKeys {
				k -= uint64(G)
			}
		}
		out[i] = on<<structShift | kind<<opShift | uint32(k)
	}
	return out
}

func (in *indexInst) run(dur time.Duration, tr *tracer) runCounts {
	rc := runWorkers(in.workers, dur, tr, func(i int) stepFunc { return in.state[i].step })
	if in.spec.pairs {
		rc.failed += in.drain()
	}
	return rc
}

func (st *indexState) step(w *worker, op uint32, sb *spanBuf, root uint32) {
	in := st.in
	k := uint64(op & keyMask)
	kind := op >> opShift & kindMask
	own := int(k)%st.G == st.g
	switch op >> structShift {
	case onMap:
		switch kind {
		case kindRead:
			s := sb.begin()
			v, ok := in.m.Load(k)
			sb.finish(spMapLoad, root, root, s)
			if ok && v != valueOf(k) || own && ok != st.inMap[k] {
				w.failed++
			}
		case kindInsert:
			s := sb.begin()
			in.m.Store(k, valueOf(k))
			sb.finish(spMapStore, root, root, s)
			st.inMap[k] = true
		default:
			s := sb.begin()
			ok := in.m.Delete(k)
			sb.finish(spMapDelete, root, root, s)
			if ok != st.inMap[k] {
				w.failed++
			}
			st.inMap[k] = false
		}
	case onSkip:
		switch kind {
		case kindRead:
			s := sb.begin()
			ok := in.s.Contains(k)
			sb.finish(spSkipContains, root, root, s)
			if own && ok != st.inSkip[k] {
				w.failed++
			}
		case kindInsert:
			s := sb.begin()
			ok := in.s.Add(k)
			sb.finish(spSkipAdd, root, root, s)
			if ok == st.inSkip[k] {
				w.failed++
			}
			st.inSkip[k] = true
		default:
			s := sb.begin()
			ok := in.s.Remove(k)
			sb.finish(spSkipRemove, root, root, s)
			if ok != st.inSkip[k] {
				w.failed++
			}
			st.inSkip[k] = false
		}
	case onQueue:
		st.seq++
		v := uint64(st.g)<<40 | st.seq
		s := sb.begin()
		in.q.Enqueue(v)
		sb.finish(spEnqueue, root, root, s)
		st.qIn.add(v)
		s = sb.begin()
		got, ok := in.q.TryDequeue()
		sb.finish(spDequeue, root, root, s)
		// The queue cannot be empty between this goroutine's enqueue
		// and its dequeue, and one producer's items leave in order.
		if p, n := got>>40, got&(1<<40-1); !ok || n <= st.lastSeen[p] {
			w.failed++
		} else {
			st.lastSeen[p] = n
		}
		if ok {
			st.qOut.add(got)
		}
	default:
		st.seq++
		v := uint64(st.g)<<40 | st.seq
		s := sb.begin()
		in.st.Push(v)
		sb.finish(spPush, root, root, s)
		st.stIn.add(v)
		s = sb.begin()
		got, ok := in.st.TryPop()
		sb.finish(spPop, root, root, s)
		if !ok {
			w.failed++
		} else {
			st.stOut.add(got)
		}
	}
}

// drain empties the queue and the stack and checks conservation: what
// came out plus what was left is what went in, by count and by sum.
// Each structure that does not balance is one failed op.
func (in *indexInst) drain() (failed uint64) {
	var qIn, qOut, stIn, stOut tally
	for i := uint64(1); i <= pairsPrefill; i++ {
		qIn.add(prefillOwner<<40 | i)
		stIn.add(prefillOwner<<40 | i)
	}
	for _, st := range in.state {
		qIn.merge(st.qIn)
		qOut.merge(st.qOut)
		stIn.merge(st.stIn)
		stOut.merge(st.stOut)
	}
	for v, ok := in.q.TryDequeue(); ok; v, ok = in.q.TryDequeue() {
		qOut.add(v)
	}
	for v, ok := in.st.TryPop(); ok; v, ok = in.st.TryPop() {
		stOut.add(v)
	}
	if qIn != qOut {
		failed++
	}
	if stIn != stOut {
		failed++
	}
	return failed
}

func (in *indexInst) release() {
	for _, w := range in.workers {
		w.stream = nil
	}
}

func (in *indexInst) layers(ops uint64, m map[string]float64) {
	m["reclaim.pending_end"] = float64(in.dom.Pending())
	m["reclaim.reclaimed_per_op"] = ratio(float64(in.dom.Reclaimed()), float64(ops))
}

func (in *indexInst) close() {}
