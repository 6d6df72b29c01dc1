package catalog

import "fmt"

// Workload is one derived benchmark cell recipe: the rows of Family that
// carry Group in their In set are each measured under it.
type Workload struct {
	Group  Cells
	Family string
	// Name is the record's scenario string.
	Name string
	// Mix is the percentage of each operation, in the shape's order
	// (insert / remove / read); Roles, when set, gives worker w its own.
	Mix   []int
	Roles func(w int) []int
	// Prefill inserts that many elements before the clock starts.
	Prefill int
	// Keys is the key (or priority) range operations draw from, Theta the
	// Zipf skew of that stream (0 = uniform). Keys == 0 passes the
	// operation index instead.
	Keys  int
	Theta float64
	// Ops is the default total operation count, sized so that the row's
	// fastest variant runs a few tens of milliseconds on one thread.
	Ops int
}

// MixFor returns worker w's operation mix.
func (wl Workload) MixFor(w int) []int {
	if wl.Roles != nil {
		return wl.Roles(w)
	}
	return wl.Mix
}

// Even workers produce and odd workers consume: the asymmetric regime where
// head and tail contention decouple (and the two-lock queue earns its
// second lock).
func producerConsumer(w int) []int {
	if w%2 == 0 {
		return []int{100, 0}
	}
	return []int{0, 100}
}

// Worker 0 owns the deque and feeds it at pushPct; every other worker is a
// thief driving TryPopTop.
func ownerAndThieves(pushPct int) func(w int) []int {
	return func(w int) []int {
		if w == 0 {
			return []int{pushPct, 100 - pushPct, 0}
		}
		return []int{0, 0, 100}
	}
}

// Workloads returns every derived cell recipe, scenario groups in S-family
// order. The Contend cells start empty: a symmetric mix then keeps the
// structure hovering near empty, which maximises head/tail collisions — the
// regime where elimination pairs operations off and combining batches them.
// The reclaim cells are delete-heavy churn, where unlink and retire traffic
// dominates.
func Workloads() []Workload {
	const k64, m1 = 1 << 16, 1 << 20
	w := []Workload{
		{Group: Figure, Family: "counter", Name: "F2: counter increment throughput", Mix: []int{100, 0}, Ops: 2000000},
		{Group: Figure, Family: "stack", Name: "F3: stack ops/sec, 50/50 push-pop, prefill 1k", Mix: []int{50, 50}, Prefill: 1024, Ops: 1200000},
		{Group: Figure, Family: "queue", Name: "F4: queue ops/sec, 50/50 enq-deq, prefill 1k", Mix: []int{50, 50}, Prefill: 1024, Ops: 1200000},
		{Group: Figure, Family: "list", Name: "F5: sorted-list sets, 90% contains / 5% add / 5% remove, keys 0..1023", Mix: []int{5, 5, 90}, Keys: 1024, Prefill: 512, Ops: 150000},
		{Group: Figure, Family: "skiplist", Name: "F7: skip lists, 90% contains / 5% add / 5% remove, keys 0..65535", Mix: []int{5, 5, 90}, Keys: k64, Prefill: k64 / 2, Ops: 200000},
		{Group: Figure, Family: "pqueue", Name: "F8: priority queues, 50/50 insert-deleteMin, prefill 4k", Mix: []int{50, 50}, Keys: m1, Prefill: 4096, Ops: 400000},

		{Group: Scenario, Family: "stack", Name: "push-heavy-70/30", Mix: []int{70, 30}, Prefill: 1024, Ops: 1200000},
		{Group: Scenario, Family: "stack", Name: "pop-heavy-30/70", Mix: []int{30, 70}, Prefill: 1024, Ops: 1200000},
		{Group: Scenario, Family: "queue", Name: "enq-heavy-70/30", Mix: []int{70, 30}, Prefill: 1024, Ops: 1200000},
		{Group: Scenario, Family: "queue", Name: "producer-consumer-split", Roles: producerConsumer, Prefill: 1024, Ops: 2000000},
		{Group: Scenario, Family: "cmap", Name: "read90/10-uniform", Mix: []int{5, 5, 90}, Keys: k64, Prefill: k64 / 2, Ops: 600000},
		{Group: Scenario, Family: "cmap", Name: "read50/50-zipf0.99", Mix: []int{25, 25, 50}, Keys: k64, Theta: 0.99, Prefill: k64 / 2, Ops: 200000},
		{Group: Scenario, Family: "list", Name: "read90/10-uniform-1k", Mix: []int{5, 5, 90}, Keys: 1024, Prefill: 512, Ops: 120000},
		{Group: Scenario, Family: "list", Name: "read50/50-uniform-1k", Mix: []int{25, 25, 50}, Keys: 1024, Prefill: 512, Ops: 120000},
		{Group: Scenario, Family: "skiplist", Name: "read90/10-zipf0.99", Mix: []int{5, 5, 90}, Keys: k64, Theta: 0.99, Prefill: k64 / 2, Ops: 180000},
		{Group: Scenario, Family: "skiplist", Name: "read50/50-uniform", Mix: []int{25, 25, 50}, Keys: k64, Prefill: k64 / 2, Ops: 150000},
		{Group: Scenario, Family: "pqueue", Name: "insert-heavy-90/10", Mix: []int{90, 10}, Keys: m1, Prefill: 4096, Ops: 600000},
		{Group: Scenario, Family: "pqueue", Name: "balanced-50/50", Mix: []int{50, 50}, Keys: m1, Prefill: 4096, Ops: 360000},
		{Group: Scenario, Family: "deque", Name: "owner-push-heavy-75/25", Roles: ownerAndThieves(75), Ops: 800000},
		{Group: Scenario, Family: "deque", Name: "owner-balanced-50/50", Roles: ownerAndThieves(50), Ops: 1000000},
		{Group: Scenario, Family: "counter", Name: "inc-only", Mix: []int{100, 0}, Ops: 2000000},
		{Group: Scenario, Family: "counter", Name: "inc90/load10", Mix: []int{90, 10}, Ops: 2000000},

		{Group: Contend, Family: "queue", Name: "queue-symmetric-50/50-empty", Mix: []int{50, 50}, Ops: 800000},
		{Group: Contend, Family: "pqueue", Name: "pqueue-symmetric-50/50", Mix: []int{50, 50}, Keys: m1, Ops: 600000},
		{Group: Contend, Family: "deque", Name: "deque-symmetric-both-ends", Mix: []int{40, 30, 30}, Ops: 800000},
		{Group: Contend, Family: "counter", Name: "counter-inc-heavy-90/10", Mix: []int{90, 10}, Ops: 2000000},

		{Group: ReclaimFigure, Family: "stack", Name: "F12: stack churn 50/50", Mix: []int{50, 50}, Prefill: 256, Ops: 800000},
		{Group: ReclaimFigure, Family: "queue", Name: "F12: queue churn 50/50", Mix: []int{50, 50}, Prefill: 256, Ops: 800000},
		{Group: ReclaimFigure, Family: "list", Name: "F12: list delete-heavy 40/40/20", Mix: []int{40, 40, 20}, Keys: 512, Prefill: 256, Ops: 100000},
		{Group: ReclaimFigure, Family: "cmap", Name: "F12: map delete-heavy 40/40/20", Mix: []int{40, 40, 20}, Keys: 4096, Prefill: 2048, Ops: 300000},
		{Group: ReclaimFigure, Family: "skiplist", Name: "F12: skiplist delete-heavy 40/40/20", Mix: []int{40, 40, 20}, Keys: 4096, Prefill: 2048, Ops: 100000},

		{Group: ReclaimScenario, Family: "list", Name: "list-delete-heavy-40/40/20", Mix: []int{40, 40, 20}, Keys: 256, Prefill: 128, Ops: 120000},
		{Group: ReclaimScenario, Family: "cmap", Name: "map-delete-heavy-40/40/20", Mix: []int{40, 40, 20}, Keys: 256, Prefill: 128, Ops: 300000},
	}
	for _, dist := range []struct {
		name  string
		theta float64
	}{{"uniform", 0}, {"zipf0.99", 0.99}} {
		for _, read := range []int{50, 90, 99} {
			w = append(w, MapReads(read, dist.theta, fmt.Sprintf("F6: hash maps, %d%% reads, %s keys 0..%d", read, dist.name, k64-1)))
		}
	}
	return w
}

// MapReads is the hash-map figure recipe at one read percentage and key
// skew (F6 sweeps both; T2 re-runs it across θ): the writes split evenly
// between stores and deletes over a half-full 64k key space.
func MapReads(readPct int, theta float64, name string) Workload {
	store := (100 - readPct) / 2
	return Workload{Group: Figure, Family: "cmap", Name: name,
		Mix: []int{store, 100 - readPct - store, readPct}, Keys: 1 << 16, Theta: theta, Prefill: 1 << 15, Ops: 800000}
}
