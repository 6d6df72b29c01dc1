package queue

import "github.com/cds-suite/cds/reclaim"

// Option configures a queue constructor.
type Option func(*options)

type options struct {
	dom     reclaim.Domain
	recycle bool
	segSize int
}

// WithReclaim attaches a safe-memory-reclamation domain (reclaim.NewEBR,
// reclaim.NewHP) to the queue: dequeued dummy nodes are retired through it
// instead of being left to the garbage collector, and operations protect
// the head/tail/next window per the domain's protocol (Michael's
// two-hazard scheme under HP). Without it, or with reclaim.NewGC(), the
// same code runs on a nil guard and dequeued nodes are simply garbage.
func WithReclaim(d reclaim.Domain) Option {
	return func(o *options) { o.dom = d }
}

// WithRecycling additionally pools retired nodes for reuse, so enqueues on
// the hot path reallocate from the pool instead of the heap. Requires a
// deferring WithReclaim domain (EBR or HP) and is ignored otherwise.
func WithRecycling() Option {
	return func(o *options) { o.recycle = true }
}

// WithSegmentSize sets the slots per ring segment for the segmented
// queues (LCRQ, MPSC); other variants ignore it. Rounded up to a power of
// two, minimum 2, default 256. Larger segments amortise the append slow
// path further but hold more memory per live segment; the A5 ablation
// sweeps the trade-off.
func WithSegmentSize(n int) Option {
	return func(o *options) { o.segSize = n }
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}
