package cmap

import "github.com/cds-suite/cds/reclaim"

// Option configures a map constructor (currently only SplitOrdered
// supports options; the lock-based maps retire nothing).
type Option func(*options)

type options struct {
	dom     reclaim.Domain
	recycle bool
}

// WithReclaim attaches a safe-memory-reclamation domain (reclaim.NewEBR,
// reclaim.NewHP) to the map: physically unlinked item nodes are retired
// through it instead of being left to the garbage collector, and keyed
// operations protect their (pred, curr) window per the domain's protocol.
// Bucket sentinels are never removed, so they are never retired. Without
// it, or with reclaim.NewGC(), the same code runs on a nil guard and
// unlinked nodes are simply garbage.
func WithReclaim(d reclaim.Domain) Option {
	return func(o *options) { o.dom = d }
}

// WithRecycling additionally pools retired item nodes for reuse. It
// requires an EBR WithReclaim domain: Range's weakly consistent iteration
// cannot hold hazard pointers across its whole walk, so under HP a reused
// node could surface mid-iteration — the option is ignored for protecting
// domains (and for GC, where nothing is ever freed for reuse).
func WithRecycling() Option {
	return func(o *options) { o.recycle = true }
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}
