package catalog

import (
	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/lincheck"
)

// The shapes: per root interface, the operations in the order workload
// mixes list them (inserting operation first), each with its lincheck
// input and result form, plus the sequential model. k is the key or
// priority, v the value.

var stackShape = shape[cds.Stack[int]]{
	name: "stack", model: lincheck.StackModel(),
	ops: []op[cds.Stack[int]]{
		{func(s cds.Stack[int], _, v int) (int, bool) { s.Push(v); return 0, true },
			func(_, v int) any { return lincheck.StackPush{Value: v} }, none},
		{func(s cds.Stack[int], _, _ int) (int, bool) { return s.TryPop() },
			func(_, _ int) any { return lincheck.StackPop{} }, valueOK},
	},
}

func enqueue(_, v int) any { return lincheck.QueueEnqueue{Value: v} }
func dequeue(_, _ int) any { return lincheck.QueueDequeue{} }

var queueShape = shape[cds.Queue[int]]{
	name: "queue", model: lincheck.QueueModel(),
	ops: []op[cds.Queue[int]]{
		{func(q cds.Queue[int], _, v int) (int, bool) { q.Enqueue(v); return 0, true }, enqueue, none},
		{func(q cds.Queue[int], _, _ int) (int, bool) { return q.TryDequeue() }, dequeue, valueOK},
	},
}

// The bounded shape is checked against the unbounded queue model: Tight
// capacities stay far above a window's operation count, so TryEnqueue never
// reports full there.
var boundedShape = shape[cds.BoundedQueue[int]]{
	name: "bounded-queue", model: lincheck.QueueModel(),
	ops: []op[cds.BoundedQueue[int]]{
		{func(q cds.BoundedQueue[int], _, v int) (int, bool) { return 0, q.TryEnqueue(v) }, enqueue, none},
		{func(q cds.BoundedQueue[int], _, _ int) (int, bool) { return q.TryDequeue() }, dequeue, valueOK},
	},
}

var setShape = shape[cds.Set[int]]{
	name: "set", model: lincheck.SetModel(),
	ops: []op[cds.Set[int]]{
		{func(s cds.Set[int], k, _ int) (int, bool) { return 0, s.Add(k) },
			func(k, _ int) any { return lincheck.SetAdd{Key: k} }, okOnly},
		{func(s cds.Set[int], k, _ int) (int, bool) { return 0, s.Remove(k) },
			func(k, _ int) any { return lincheck.SetRemove{Key: k} }, okOnly},
		{func(s cds.Set[int], k, _ int) (int, bool) { return 0, s.Contains(k) },
			func(k, _ int) any { return lincheck.SetContains{Key: k} }, okOnly},
	},
}

var mapShape = shape[cds.Map[int, int]]{
	name: "map", model: lincheck.MapModel(),
	ops: []op[cds.Map[int, int]]{
		{func(m cds.Map[int, int], k, v int) (int, bool) { m.Store(k, v); return 0, true },
			func(k, v int) any { return lincheck.MapStore{Key: k, Value: v} }, none},
		{func(m cds.Map[int, int], k, _ int) (int, bool) { return 0, m.Delete(k) },
			func(k, _ int) any { return lincheck.MapDelete{Key: k} }, okOnly},
		{func(m cds.Map[int, int], k, _ int) (int, bool) { return m.Load(k) },
			func(k, _ int) any { return lincheck.MapLoad{Key: k} }, valueOK},
	},
}

// Priorities come from the key argument, so lincheck's tiny key range makes
// duplicate minima common: the multiset model must accept any tied instance
// while still rejecting out-of-order deliveries.
var pqShape = shape[cds.PriorityQueue[int]]{
	name: "priority-queue", model: lincheck.PQModel(),
	ops: []op[cds.PriorityQueue[int]]{
		{func(q cds.PriorityQueue[int], k, _ int) (int, bool) { q.Insert(k); return 0, true },
			func(k, _ int) any { return lincheck.PQInsert{Value: k} }, none},
		{func(q cds.PriorityQueue[int], _, _ int) (int, bool) { return q.TryDeleteMin() },
			func(_, _ int) any { return lincheck.PQDeleteMin{} }, valueOK},
	},
}

// Chase-Lev restricts PushBottom/TryPopBottom to one owner goroutine, so in
// every deque window client 0 plays the owner while the rest are thieves
// racing TryPopTop — the steal/take races on the last element are exactly
// what the checker must see.
var dequeShape = shape[cds.Deque[int]]{
	name: "deque", model: lincheck.DequeModel(),
	ops: []op[cds.Deque[int]]{
		{func(d cds.Deque[int], _, v int) (int, bool) { d.PushBottom(v); return 0, true },
			func(_, v int) any { return lincheck.DequePushBottom{Value: v} }, none},
		{func(d cds.Deque[int], _, _ int) (int, bool) { return d.TryPopBottom() },
			func(_, _ int) any { return lincheck.DequePopBottom{} }, valueOK},
		{func(d cds.Deque[int], _, _ int) (int, bool) { return d.TryPopTop() },
			func(_, _ int) any { return lincheck.DequePopTop{} }, valueOK},
	},
	roles: func(client, _ int) []int {
		if client == 0 {
			return []int{0, 1}
		}
		return []int{2}
	},
}

var counterShape = shape[cds.Counter]{
	name: "counter", model: lincheck.CounterModel(),
	ops: []op[cds.Counter]{
		{func(c cds.Counter, _, v int) (int, bool) { c.Add(int64(v)); return 0, true },
			func(_, v int) any { return lincheck.CounterAdd{Delta: int64(v)} }, none},
		{func(c cds.Counter, _, _ int) (int, bool) { return int(c.Load()), true },
			func(_, _ int) any { return lincheck.CounterLoad{} },
			func(r int, _ bool) any { return int64(r) }},
	},
}
