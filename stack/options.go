package stack

import "github.com/cds-suite/cds/reclaim"

// Option configures a stack constructor.
type Option func(*options)

type options struct {
	dom     reclaim.Domain
	recycle bool
}

// WithReclaim attaches a safe-memory-reclamation domain (reclaim.NewEBR,
// reclaim.NewHP) to the stack: popped nodes are retired through it instead
// of being left to the garbage collector, and pops protect the head per
// the domain's protocol. Without it, or with reclaim.NewGC(), the same
// code runs on a nil guard and popped nodes are simply garbage.
func WithReclaim(d reclaim.Domain) Option {
	return func(o *options) { o.dom = d }
}

// WithRecycling additionally pools retired nodes for reuse, so pushes on
// the hot path reallocate from the pool instead of the heap. Requires a
// deferring WithReclaim domain (EBR or HP) — reuse is safe only once the
// domain has declared a node unreachable — and is ignored otherwise.
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
