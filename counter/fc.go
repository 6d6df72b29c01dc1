package counter

import (
	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/contend"
)

var _ cds.Counter = (*Combining)(nil)

// Combining is a delegation-based counter: a plain int64 made concurrent
// through a contend.Delegator backend (flat combining by default; CC-Synch
// or DSM-Synch via contend.WithBackend). Where CombiningTree combines
// requests pairwise on the way up a static tree — requiring threads to
// hold per-slot handles — Combining delegates them to a single temporary
// combiner, needs no handle discipline, and supports the same
// fetch-and-add shape through closure captures.
//
// A counter is the smallest possible combining payload, which makes it the
// cleanest lens on the backends themselves: any throughput difference
// between flat combining, CC-Synch and DSM-Synch here is pure delegation
// overhead, with no structure work to hide it. A plain counter.Atomic is
// faster at low thread counts; the combining variants exist for the
// saturated regime and for reading the backend gauges.
//
// Progress: blocking in the small (a stalled combiner delays its batch) but
// the combiner role is held only for a bounded batch.
type Combining struct {
	d contend.Delegator[*int64]
}

// NewCombining returns a combining counter at zero.
func NewCombining(opts ...contend.Option) *Combining {
	return &Combining{d: contend.NewDelegator(new(int64), opts...)}
}

// Inc adds 1.
func (c *Combining) Inc() { c.Add(1) }

// Add adds delta (which may be negative), batched with concurrent updates
// by the current combiner.
func (c *Combining) Add(delta int64) {
	c.d.Do(func(n *int64) { *n += delta })
}

// FetchAdd adds delta and returns the value immediately before this
// operation was applied within its batch.
func (c *Combining) FetchAdd(delta int64) int64 {
	var prior int64
	c.d.Do(func(n *int64) {
		prior = *n
		*n += delta
	})
	return prior
}

// Load returns the current value. The read is an operation like any other:
// it is serialised into a batch, so it is linearizable (unlike the sharded
// counters' quiescent sums).
func (c *Combining) Load() int64 {
	var v int64
	c.d.Do(func(n *int64) { v = *n })
	return v
}

// Stats reports the combining-backend gauges (batches, ops, handoffs).
func (c *Combining) Stats() contend.DelegatorStats { return c.d.Stats() }
