package list

import "github.com/cds-suite/cds/reclaim"

// Option configures a list constructor (currently only Harris supports
// options; the lock-based lists retire nothing).
type Option func(*options)

type options struct {
	dom     reclaim.Domain
	recycle bool
}

// WithReclaim attaches a safe-memory-reclamation domain (reclaim.NewEBR,
// reclaim.NewHP) to the list: physically unlinked nodes are retired
// through it instead of being left to the garbage collector, and
// traversals protect their (pred, curr) window per the domain's protocol.
// Without it, or with reclaim.NewGC(), the same code runs on a nil guard
// and unlinked nodes are simply garbage.
func WithReclaim(d reclaim.Domain) Option {
	return func(o *options) { o.dom = d }
}

// WithRecycling additionally pools retired nodes for reuse, so inserts on
// the hot path reallocate from the pool instead of the heap. Requires a
// deferring WithReclaim domain (EBR or HP) and is ignored otherwise.
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
