package catalog

import (
	"sync"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/cmap"
	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/counter"
	"github.com/cds-suite/cds/deque"
	"github.com/cds-suite/cds/fc"
	"github.com/cds-suite/cds/list"
	"github.com/cds-suite/cds/pqueue"
	"github.com/cds-suite/cds/queue"
	"github.com/cds-suite/cds/skiplist"
	"github.com/cds-suite/cds/stack"
)

// The tables: one per root shape, one row per variant. Registering a new
// variant is adding its row here.

// tight returns small when o asks for lincheck-sized parameters.
func tight(o Options, small, normal int) int {
	if o.Tight {
		return small
	}
	return normal
}

// Stacks lists the cds.Stack variants.
var Stacks = []Variant[cds.Stack[int]]{
	{Label: "Mutex", Family: "stack", Progress: Blocking, In: Figure | Scenario,
		New: func(Options) cds.Stack[int] { return stack.NewMutex[int]() }},
	{Label: "Treiber", Family: "stack", Progress: LockFree, Accepts: Reclaim | Recycle, In: Figure | Scenario | ReclaimFigure,
		New: func(o Options) cds.Stack[int] {
			return stack.NewTreiber[int](reclaimOpts(o, stack.WithReclaim, stack.WithRecycling)...)
		}},
	// A narrow array and a short spin budget make elimination fire inside
	// lincheck's windows; the zeros select the package defaults.
	{Label: "Elimination", Family: "stack", Progress: LockFree, Accepts: Reclaim | Recycle, In: Figure | Scenario,
		New: func(o Options) cds.Stack[int] {
			return stack.NewElimination[int](tight(o, 2, 0), tight(o, 16, 0),
				reclaimOpts(o, stack.WithReclaim, stack.WithRecycling)...)
		}},
	{Label: "FC", Family: "stack", Progress: Blocking, Accepts: Backend, In: Figure | Scenario,
		New: func(o Options) cds.Stack[int] { return fc.NewStack[int](contend.WithBackend(o.Backend)) }},
}

func queueOpts(o Options) []queue.Option {
	opts := reclaimOpts(o, queue.WithReclaim, queue.WithRecycling)
	if o.Tight {
		// Segment size 2 forces the close/append transition every couple
		// of enqueues, so windows keep crossing segment boundaries.
		opts = append(opts, queue.WithSegmentSize(2))
	}
	return opts
}

// Queues lists the cds.Queue variants.
var Queues = []Variant[cds.Queue[int]]{
	{Label: "Mutex", Family: "queue", Progress: Blocking, In: Figure | Scenario,
		New: func(Options) cds.Queue[int] { return queue.NewMutex[int]() }},
	{Label: "TwoLock", Family: "queue", Progress: Blocking, In: Figure | Scenario,
		New: func(Options) cds.Queue[int] { return queue.NewTwoLock[int]() }},
	{Label: "MS", Family: "queue", Progress: LockFree, Accepts: Reclaim | Recycle, In: Figure | Scenario | Contend | ReclaimFigure,
		New: func(o Options) cds.Queue[int] { return queue.NewMS[int](queueOpts(o)...) }},
	// FIFO elimination is only legal on an empty queue, which is exactly
	// the validation the checker would catch cheating on.
	{Label: "ElimMS", Family: "queue", Progress: LockFree, Accepts: Reclaim | Recycle, In: Figure | Scenario | Contend,
		New: func(o Options) cds.Queue[int] {
			return queue.NewElimination[int](tight(o, 2, 0), tight(o, 16, 0), queueOpts(o)...)
		}},
	{Label: "FC", Family: "queue", Progress: Blocking, Accepts: Backend, In: Figure | FigureBackends | Scenario | Contend,
		New: func(o Options) cds.Queue[int] { return fc.NewQueue[int](contend.WithBackend(o.Backend)) }},
	{Label: "LCRQ", Family: "queue", Progress: LockFree, Accepts: Reclaim | Recycle, In: Scenario,
		New: func(o Options) cds.Queue[int] { return queue.NewLCRQ[int](queueOpts(o)...) }},
	// The plain-store dequeue cursor is only sound single-consumer: the
	// last client is the sole dequeuer, the rest only enqueue. The model is
	// still the full queue — the specialization must not cost FIFO order or
	// exactly-once delivery.
	{Label: "MPSC", Family: "queue", Progress: LockFree, Accepts: Reclaim | Recycle,
		Roles: func(client, clients int) []int {
			if client == clients-1 {
				return []int{1}
			}
			return []int{0}
		},
		New: func(o Options) cds.Queue[int] { return queue.NewMPSC[int](queueOpts(o)...) }},
}

// BoundedQueues lists the cds.BoundedQueue variants. They are measured in
// the queue family's cells, a failed TryEnqueue counting as an operation.
var BoundedQueues = []Variant[cds.BoundedQueue[int]]{
	// Not strictly lock-free — a producer stalled between claiming a slot
	// and publishing it delays that slot's consumer — hence Blocking.
	{Label: "MPMC-64k", Family: "queue", Progress: Blocking, In: Figure | Scenario,
		New: func(o Options) cds.BoundedQueue[int] { return queue.NewMPMC[int](tight(o, 64, 1<<16)) }},
}

// Sets lists the cds.Set variants: the sorted lists and the skip lists.
var Sets = []Variant[cds.Set[int]]{
	{Label: "Coarse", Family: "list", Progress: Blocking, In: Figure | Scenario,
		New: func(Options) cds.Set[int] { return list.NewCoarse[int]() }},
	{Label: "Fine", Family: "list", Progress: Blocking, In: Figure,
		New: func(Options) cds.Set[int] { return list.NewFine[int]() }},
	{Label: "Optimistic", Family: "list", Progress: Blocking, In: Figure,
		New: func(Options) cds.Set[int] { return list.NewOptimistic[int]() }},
	{Label: "Lazy", Family: "list", Progress: Blocking, In: Figure | Scenario,
		New: func(Options) cds.Set[int] { return list.NewLazy[int]() }},
	{Label: "Harris", Family: "list", Progress: LockFree, Accepts: Reclaim | Recycle, In: Figure | Scenario | ReclaimFigure | ReclaimScenario,
		New: func(o Options) cds.Set[int] {
			return list.NewHarris[int](reclaimOpts(o, list.WithReclaim, list.WithRecycling)...)
		}},
	{Label: "Lazy", Family: "skiplist", Progress: Blocking, In: Figure | Scenario,
		New: func(Options) cds.Set[int] { return skiplist.NewLazy[int]() }},
	{Label: "LockFree", Family: "skiplist", Progress: LockFree, Accepts: Reclaim, In: Figure | Scenario | ReclaimFigure | ReclaimScenario,
		New: func(o Options) cds.Set[int] {
			return skiplist.NewLockFree[int](reclaimOpts(o, skiplist.WithReclaim, nil)...)
		}},
}

// syncMap wraps sync.Map as a cds.Map: the baseline every Go map is
// implicitly compared against.
type syncMap struct{ m sync.Map }

func (a *syncMap) Load(k int) (int, bool) {
	v, ok := a.m.Load(k)
	if !ok {
		return 0, false
	}
	return v.(int), true
}
func (a *syncMap) Store(k, v int) { a.m.Store(k, v) }
func (a *syncMap) LoadOrStore(k, v int) (int, bool) {
	actual, loaded := a.m.LoadOrStore(k, v)
	return actual.(int), loaded
}
func (a *syncMap) Delete(k int) bool {
	_, loaded := a.m.LoadAndDelete(k)
	return loaded
}
func (a *syncMap) Len() int {
	n := 0
	a.m.Range(func(any, any) bool { n++; return true })
	return n
}

// Maps lists the cds.Map variants.
var Maps = []Variant[cds.Map[int, int]]{
	{Label: "Locked", Family: "cmap", Progress: Blocking, In: Figure | Scenario,
		New: func(Options) cds.Map[int, int] { return cmap.NewLocked[int, int]() }},
	{Label: "Striped", Family: "cmap", Progress: Blocking, In: Figure | Scenario,
		New: func(o Options) cds.Map[int, int] { return cmap.NewStriped[int, int](tight(o, 8, 64)) }},
	{Label: "SplitOrdered", Family: "cmap", Progress: LockFree, Accepts: Reclaim | RecycleEBR, In: Figure | Scenario | ReclaimFigure | ReclaimScenario,
		New: func(o Options) cds.Map[int, int] {
			return cmap.NewSplitOrdered[int, int](reclaimOpts(o, cmap.WithReclaim, cmap.WithRecycling)...)
		}},
	{Label: "sync.Map", Family: "cmap", Progress: Blocking, In: Figure | Scenario,
		New: func(Options) cds.Map[int, int] { return &syncMap{} }},
}

func intLess(a, b int) bool { return a < b }

// PriorityQueues lists the cds.PriorityQueue variants.
var PriorityQueues = []Variant[cds.PriorityQueue[int]]{
	{Label: "LockedHeap", Family: "pqueue", Progress: Blocking, In: Figure | Scenario | Contend,
		New: func(Options) cds.PriorityQueue[int] { return pqueue.NewHeap[int](intLess) }},
	{Label: "SkipListPQ", Family: "pqueue", Progress: LockFree, In: Figure | Scenario | Contend,
		New: func(Options) cds.PriorityQueue[int] { return pqueue.NewSkipList[int]() }},
	{Label: "FCHeap", Family: "pqueue", Progress: Blocking, Accepts: Backend, In: Figure | FigureBackends | Scenario | Contend,
		New: func(o Options) cds.PriorityQueue[int] {
			return pqueue.NewFC[int](intLess, contend.WithBackend(o.Backend))
		}},
}

// Deques lists the cds.Deque variants. Figure is F9's work-stealing system
// cell; the symmetric Contend cell drives both ends from every worker,
// which Chase-Lev's owner restriction rules out.
var Deques = []Variant[cds.Deque[int]]{
	// Owner operations are wait-free; steals are lock-free.
	{Label: "ChaseLev", Family: "deque", Progress: LockFree, In: Figure | Scenario,
		New: func(o Options) cds.Deque[int] { return deque.NewChaseLev[int](tight(o, 8, 1024)) }},
	{Label: "MutexDeque", Family: "deque", Progress: Blocking, In: Figure | Scenario | Contend,
		New: func(Options) cds.Deque[int] { return deque.NewMutex[int]() }},
	{Label: "FCDeque", Family: "deque", Progress: Blocking, Accepts: Backend, In: Scenario | Contend,
		New: func(o Options) cds.Deque[int] { return deque.NewFC[int](contend.WithBackend(o.Backend)) }},
}

// Per-worker counter views: updates go through the worker's private handle,
// Load through the shared counter.
type shardedWorker struct {
	*counter.ShardedHandle
	all *counter.Sharded
}

func (w shardedWorker) Load() int64 { return w.all.Load() }

type treeWorker struct {
	*counter.CombiningHandle
	all *counter.CombiningTree
}

func (w treeWorker) Load() int64 { return w.all.Load() }

// Counters lists the cds.Counter variants. Sharded, Approx and
// CombiningTree trade read exactness for update scalability, so a Load
// concurrent with updates is not linearizable: Relaxed.
var Counters = []Variant[cds.Counter]{
	{Label: "Locked", Family: "counter", Progress: Blocking, In: Figure,
		New: func(Options) cds.Counter { return new(counter.Locked) }},
	{Label: "Atomic", Family: "counter", Progress: WaitFree, In: Figure | Scenario | Contend,
		New: func(Options) cds.Counter { return new(counter.Atomic) }},
	{Label: "Sharded", Family: "counter", Progress: WaitFree, In: Figure | Scenario, Relaxed: true,
		New: func(Options) cds.Counter { return counter.NewSharded(0) },
		Worker: func(c cds.Counter, _ int) cds.Counter {
			s := c.(*counter.Sharded)
			return shardedWorker{s.Handle(), s}
		}},
	{Label: "Approx", Family: "counter", Progress: WaitFree, In: Figure | Scenario, Relaxed: true,
		New: func(Options) cds.Counter { return counter.NewApprox(0, 64) }},
	{Label: "CombiningTree", Family: "counter", Progress: Blocking, In: Figure, Relaxed: true,
		New: func(o Options) cds.Counter { return counter.NewCombiningTree(max(o.Workers, 1)) },
		Worker: func(c cds.Counter, w int) cds.Counter {
			t := c.(*counter.CombiningTree)
			return treeWorker{t.Handle(w), t}
		}},
	{Label: "Combining", Family: "counter", Progress: Blocking, Accepts: Backend, In: Contend,
		New: func(o Options) cds.Counter { return counter.NewCombining(contend.WithBackend(o.Backend)) }},
}
