package counter

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/cds-suite/cds/internal/pad"
	"github.com/cds-suite/cds/internal/pow2"
	"github.com/cds-suite/cds/internal/xrand"
)

// Sharded is a striped counter: updates hit one of several cache-line-padded
// slots and Load sums the slots. This is the LongAdder/statistical-counter
// design: updates scale nearly linearly with cores because disjoint slots
// live on disjoint cache lines, while reads do O(shards) work and return a
// value that is exact only in quiescent states (Load is not a linearizable
// snapshot; it returns some value the counter passed through during the
// scan).
//
// Shard selection needs per-thread state, which portable Go lacks; Add
// borrows a PRNG from a sync.Pool (per-P caches make this nearly
// contention-free). Hot loops should hoist the state with Handle, which
// pins selection state to the caller.
//
// Progress: Add is wait-free (pool fast path aside); Load is wait-free but
// weakly consistent.
type Sharded struct {
	shards []paddedInt64
	mask   uint64
	states sync.Pool
}

type paddedInt64 struct {
	n atomic.Int64
	_ pad.CacheLinePad
}

// NewSharded returns a striped counter with the given number of shards,
// rounded up to a power of two. shards <= 0 selects 4×GOMAXPROCS, the
// conventional over-provisioning that keeps collision probability low.
func NewSharded(shards int) *Sharded {
	if shards <= 0 {
		shards = 4 * runtime.GOMAXPROCS(0)
	}
	n := pow2.RoundUp(shards, 1)
	c := &Sharded{
		shards: make([]paddedInt64, n),
		mask:   uint64(n - 1),
	}
	var seed atomic.Uint64
	c.states.New = func() any {
		s := seed.Add(0x9e3779b97f4a7c15)
		return &s
	}
	return c
}

// Inc adds 1.
func (c *Sharded) Inc() { c.Add(1) }

// Add adds delta to one shard.
func (c *Sharded) Add(delta int64) {
	s := c.states.Get().(*uint64)
	idx := xrand.SplitMix64(s) & c.mask
	c.shards[idx].n.Add(delta)
	c.states.Put(s)
}

// Load returns the sum of all shards. The result is exact when no updates
// are concurrent. Under concurrency the scan reads each shard at a
// different moment, so it includes some of the concurrent updates and
// misses others: the result lies between the start count plus every
// concurrent negative delta and the start count plus every concurrent
// positive one. Only while all concurrent deltas share one sign is that
// also between the counts at the start and end of the scan; a +1 landing
// on a shard already read and a -1 on one not yet read makes a scan of a
// count that stays at 0 return -1.
func (c *Sharded) Load() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].n.Load()
	}
	return sum
}

// Handle returns an update handle with private shard-selection state. A
// Handle must be used by one goroutine at a time; the updates it performs
// are visible to every Load.
func (c *Sharded) Handle() *ShardedHandle {
	s := c.states.Get().(*uint64)
	state := *s
	c.states.Put(s)
	return &ShardedHandle{c: c, state: state}
}

// ShardedHandle performs updates against a Sharded counter with
// goroutine-private selection state, avoiding all shared selection traffic.
type ShardedHandle struct {
	c     *Sharded
	state uint64
}

// Inc adds 1.
func (h *ShardedHandle) Inc() { h.Add(1) }

// Add adds delta to one shard of the underlying counter.
func (h *ShardedHandle) Add(delta int64) {
	idx := xrand.SplitMix64(&h.state) & h.c.mask
	h.c.shards[idx].n.Add(delta)
}
