package dual

import "github.com/cds-suite/cds/reclaim"

// Option configures a dual-structure constructor.
type Option func(*options)

type options struct {
	dom reclaim.Domain
}

// WithReclaim attaches a safe-memory-reclamation domain (reclaim.NewEBR,
// reclaim.NewHP) to the structure: unlinked transfer-list nodes are
// retired through it and traversals follow the domain's protection
// protocol. Guards are never held across a park, so a blocked waiter does
// not stall the domain. Without it, or with reclaim.NewGC(), the same
// code runs on a nil guard and unlinked nodes are simply garbage.
//
// Unlike the total-operation structures there is no WithRecycling: a
// waiter still reads its own node after the fulfilling side may have
// retired it, which is safe only while the GC keeps the memory alive.
func WithReclaim(d reclaim.Domain) Option {
	return func(o *options) { o.dom = d }
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}
