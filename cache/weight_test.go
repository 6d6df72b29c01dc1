package cache

import (
	"fmt"
	"testing"
)

// weighted returns a single-shard weight-bounded cache for deterministic
// eviction traces.
func weighted(maxWeight int64, p Policy) *Cache[string, int] {
	return New[string, int](16, WithPolicy(p), WithShards(1), WithMaxWeight(maxWeight))
}

// checkWeightInvariant asserts the weighted-capacity contract the CI
// bench-smoke also watches: resident weight never exceeds the bound, and
// every admission rejection considered a victim first.
func checkWeightInvariant(t *testing.T, c *Cache[string, int]) {
	t.Helper()
	st := c.Stats()
	if c.MaxWeight() > 0 && st.WeightResident > c.MaxWeight() {
		t.Fatalf("WeightResident %d > MaxWeight %d", st.WeightResident, c.MaxWeight())
	}
	if st.AdmissionRejects > st.EvictConsidered {
		t.Fatalf("AdmissionRejects %d > EvictConsidered %d", st.AdmissionRejects, st.EvictConsidered)
	}
}

// TestWeightedBasicAccounting pins SetWeight's gauge arithmetic: inserts
// add, updates adjust by the delta, deletes subtract.
func TestWeightedBasicAccounting(t *testing.T) {
	c := weighted(10, SIEVE)
	c.SetWeight("a", 1, 4)
	c.SetWeight("b", 2, 4)
	if st := c.Stats(); st.WeightResident != 8 {
		t.Fatalf("WeightResident = %d, want 8", st.WeightResident)
	}
	c.SetWeight("a", 1, 2) // shrink in place
	if st := c.Stats(); st.WeightResident != 6 {
		t.Fatalf("after shrink WeightResident = %d, want 6", st.WeightResident)
	}
	c.Delete("b")
	if st := c.Stats(); st.WeightResident != 2 {
		t.Fatalf("after delete WeightResident = %d, want 2", st.WeightResident)
	}
	checkWeightInvariant(t, c)
}

// TestWeightedMultiVictimEviction pins the defining weighted behaviour:
// one heavy insert evicts as many victims as its weight demands. With
// {a:4, b:4} resident under budget 10, inserting c:9 must evict both.
func TestWeightedMultiVictimEviction(t *testing.T) {
	c := weighted(10, SIEVE)
	c.SetWeight("a", 1, 4)
	c.SetWeight("b", 2, 4)
	c.SetWeight("c", 3, 9)
	wantAbsent(t, c, "a", "b")
	wantPresent(t, c, "c")
	st := c.Stats()
	if st.Evictions != 2 {
		t.Fatalf("Evictions = %d, want 2 (one insert, two victims)", st.Evictions)
	}
	if st.WeightResident != 9 {
		t.Fatalf("WeightResident = %d, want 9", st.WeightResident)
	}
	checkWeightInvariant(t, c)
}

// TestWeightedCountBoundDisabled pins the "switch" semantics of
// WithMaxWeight: capacity counts entries no longer — many light entries
// beyond the constructor capacity stay resident as long as their total
// weight fits.
func TestWeightedCountBoundDisabled(t *testing.T) {
	c := New[string, int](4, WithShards(1), WithMaxWeight(100))
	for i := 0; i < 20; i++ {
		c.Set(fmt.Sprintf("k%d", i), i) // default weight 1 each
	}
	if got := c.Len(); got != 20 {
		t.Fatalf("Len = %d, want 20 (count bound must be off)", got)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("Evictions = %d, want 0", st.Evictions)
	}
	checkWeightInvariant(t, c)
}

// TestWeightedInfeasibleRejected pins the over-budget corner: an entry
// whose weight alone exceeds the shard's budget is rejected (caching it
// would pin the shard over capacity forever), counted as an admission
// rejection, and — crucially — an infeasible *update* removes the old
// value rather than leaving a stale one readable.
func TestWeightedInfeasibleRejected(t *testing.T) {
	c := weighted(10, SIEVE)
	c.SetWeight("big", 1, 11)
	wantAbsent(t, c, "big")
	st := c.Stats()
	if st.AdmissionRejects != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1", st.AdmissionRejects)
	}
	if st.Evictions != 0 {
		t.Fatalf("Evictions = %d, want 0", st.Evictions)
	}

	// The update path: a feasible entry updated to an infeasible weight
	// must disappear, not survive with the stale small value.
	c.SetWeight("grow", 7, 2)
	wantPresent(t, c, "grow")
	c.SetWeight("grow", 8, 11)
	wantAbsent(t, c, "grow")
	if st := c.Stats(); st.WeightResident != 0 {
		t.Fatalf("WeightResident = %d, want 0", st.WeightResident)
	}
	checkWeightInvariant(t, c)
}

// TestWeightedGrowingUpdateSheds pins shedLocked: updating a resident
// entry to a larger weight can push the shard over budget with no insert
// involved, and other residents are evicted until it fits again.
func TestWeightedGrowingUpdateSheds(t *testing.T) {
	c := weighted(10, SIEVE)
	c.SetWeight("a", 1, 4)
	c.SetWeight("b", 2, 4)
	c.SetWeight("a", 1, 7) // 7 + 4 > 10: b must go
	wantAbsent(t, c, "b")
	wantPresent(t, c, "a")
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if st.WeightResident != 7 {
		t.Fatalf("WeightResident = %d, want 7", st.WeightResident)
	}
	checkWeightInvariant(t, c)
}

// TestWeigher pins WithWeigher: Set (no explicit weight) charges the
// function's result — here the value's magnitude — and SetWeight still
// overrides it per entry.
func TestWeigher(t *testing.T) {
	c := New[string, int](16, WithShards(1), WithMaxWeight(10),
		WithWeigher(func(k string, v int) int64 { return int64(v) }))
	c.Set("a", 3)
	c.Set("b", 4)
	if st := c.Stats(); st.WeightResident != 7 {
		t.Fatalf("WeightResident = %d, want 7", st.WeightResident)
	}
	c.SetWeight("b", 4, 1) // explicit weight wins over the weigher
	if st := c.Stats(); st.WeightResident != 4 {
		t.Fatalf("WeightResident = %d, want 4", st.WeightResident)
	}
	checkWeightInvariant(t, c)
}

// TestSetManyPanickingWeigherLeavesShardUnlocked: the weigher is user
// code and SetMany runs it before taking any shard lock, so a panic in it
// strands nothing — the shard's lock is free afterwards and a Set on the
// same shard completes.
func TestSetManyPanickingWeigherLeavesShardUnlocked(t *testing.T) {
	c := New[string, int](16, WithShards(1), WithMaxWeight(100),
		WithWeigher(func(k string, v int) int64 {
			if v < 0 {
				panic("weigher: negative value")
			}
			return int64(v)
		}))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetMany swallowed the weigher's panic")
			}
		}()
		c.SetMany([]string{"a", "b"}, []int{1, -1})
	}()
	if !c.shards[0].mu.TryLock() {
		t.Fatal("shard still locked after the weigher panicked in SetMany")
	}
	c.shards[0].mu.Unlock()
	c.Set("c", 2)
	if v, ok := c.Get("c"); !ok || v != 2 {
		t.Fatalf("Get(c) = %d, %v after the panic, want 2, true", v, ok)
	}
	// The batch is all-or-nothing with respect to the weigher: nothing of
	// it was inserted.
	if _, ok := c.Get("a"); ok {
		t.Fatal("SetMany inserted part of a batch whose weigher panicked")
	}
	checkWeightInvariant(t, c)
}

// TestWeigherTypeMismatchPanics pins the constructor's guard: WithWeigher
// is generic where Option is not, so mismatched type parameters must fail
// loudly at construction, not silently weigh nothing.
func TestWeigherTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a weigher with mismatched type parameters")
		}
	}()
	New[string, int](8, WithMaxWeight(10),
		WithWeigher(func(k int, v int) int64 { return 1 }))
}

// TestWeightedShardClamp pins the constructor sizing rule: the shard
// count shrinks until every shard owns at least one unit of weight, so no
// shard is born unable to store anything.
func TestWeightedShardClamp(t *testing.T) {
	c := New[string, int](64, WithShards(16), WithMaxWeight(3))
	if got := len(c.shards); got > 3 {
		t.Fatalf("shards = %d, want <= MaxWeight 3", got)
	}
	for i := range c.shards {
		if c.shards[i].maxWeight < 1 {
			t.Fatalf("shard %d weight budget = %d, want >= 1", i, c.shards[i].maxWeight)
		}
	}
}

// TestWeightedWithPolicies runs a small weighted churn against every
// policy and checks the invariant plus basic liveness: the bound holds
// throughout, and the last (heaviest-churned) key is still readable.
func TestWeightedWithPolicies(t *testing.T) {
	for _, p := range []Policy{SIEVE, S3FIFO, LRU} {
		c := weighted(32, p)
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("k%d", i%10)
			c.SetWeight(k, i, int64(1+i%7))
			c.Get(fmt.Sprintf("k%d", (i+3)%10))
			checkWeightInvariant(t, c)
		}
		if c.Len() == 0 {
			t.Errorf("%v: cache drained to empty under feasible weights", p)
		}
	}
}
