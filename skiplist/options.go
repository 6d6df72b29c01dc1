package skiplist

import "github.com/cds-suite/cds/reclaim"

// Option configures a skip-list constructor (currently only LockFree
// supports options; the lazy list retires nothing).
type Option func(*options)

type options struct {
	dom reclaim.Domain
}

// WithReclaim attaches a safe-memory-reclamation domain (reclaim.NewEBR,
// reclaim.NewHP) to the skip list: a removed node is retired — once, by
// the level-0 marker after its unlinking traversal — through the domain
// instead of being left to the garbage collector.
//
// Unlike the single-level structures there is no recycling option: a
// concurrent Add can re-link a marked node at an upper level after the
// remover's traversal finished (the helping protocol tolerates and later
// repairs this), so a retired node may transiently be reachable again —
// harmless for counting and deferral, ruinous for eager reuse. See the
// README's reclamation section.
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
