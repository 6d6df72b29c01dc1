package bench

import (
	"fmt"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/catalog"
	"github.com/cds-suite/cds/queue"
	"github.com/cds-suite/cds/reclaim"
)

// The queue-segmented family (experiment S18) measures the FAA-claimed
// segmented queues against the CAS-retry designs they are built to beat:
// queue.MS (one CAS race per operation) and the bounded queue.MPMC ring
// (one CAS race per ticket). Every record carries conservation gauges —
// harness-counted enqueues/dequeues plus the structure's own segment
// counters — so a report certifies not just throughput but where the
// operations went: enqueues == dequeues + residual, and segs_allocated ==
// segs_recycled + segs_live + segs_retired_pending. The enq_slowpath and
// deq_abandoned gauges split FAA fast-path operations from tantrum/append
// traffic, which is the evidence that matters on hardware too small to
// show a parallel-speedup ratio.

// segWorkerCounts is one worker's successful-operation tally, padded so
// concurrent workers do not false-share tally lines.
type segWorkerCounts struct {
	enq, deq int64
	_        [112]byte
}

// segHarnessGauges folds the per-worker tallies into the conservation
// gauges. prefill counts as enqueues (the harness performed them before
// the measured region) so the identity enqueues == dequeues + residual
// holds exactly. extra contributes the structure's own end-of-run
// counters.
func segHarnessGauges(counts []segWorkerCounts, prefill, residual int, extra func() map[string]float64) map[string]float64 {
	var enq, deq int64
	for i := range counts {
		enq += counts[i].enq
		deq += counts[i].deq
	}
	g := map[string]float64{
		"enqueues": float64(int64(prefill) + enq),
		"dequeues": float64(deq),
		"residual": float64(residual),
	}
	return merge(g, extra())
}

// segStatGauges flattens a segmented queue's segment-lifecycle counters
// into record gauges. The naming is what the CI bench-smoke validation
// asserts over.
func segStatGauges(s queue.SegStats) map[string]float64 {
	return map[string]float64{
		"segs_allocated":       float64(s.SegsAllocated),
		"segs_recycled":        float64(s.SegsRecycled),
		"segs_reused":          float64(s.SegsReused),
		"segs_closed":          float64(s.SegsClosed),
		"segs_live":            float64(s.SegsLive),
		"segs_retired_pending": float64(s.SegsRetiredPending),
		"enq_slowpath":         float64(s.EnqSlowpath),
		"deq_abandoned":        float64(s.DeqAbandoned),
	}
}

// mpmcStatGauges flattens the bounded ring's CAS-miss and backoff
// counters (the observable face of the S2 backoff fix).
func mpmcStatGauges(s queue.MPMCStats) map[string]float64 {
	return map[string]float64{
		"enq_cas_misses": float64(s.EnqCASMisses),
		"deq_cas_misses": float64(s.DeqCASMisses),
		"backoffs":       float64(s.Backoffs),
	}
}

// segDriver adapts one queue implementation to the S18 harness: enq/deq
// report success (so failed bounded-ring tickets and empty dequeues do not
// corrupt the conservation gauges), length reads the residual, and gauges
// snapshots the structure's own counters (nil when it has none).
type segDriver struct {
	enq    func(int) bool
	deq    func() bool
	length func() int
	gauges func() map[string]float64
}

// segDriverFor builds drivers over the catalogue's queue-family row with
// the given label. Under a deferring domain the cell runs the deployment
// shape — real reclamation, segment recycling if o asks for it — with the
// advance interval forced to 1 so even quick runs exercise the recycler,
// and the domain's pending/reclaimed gauges join the segment counters.
func segDriverFor(label string, o catalog.Options) func() segDriver {
	row := catalog.Find("queue", label)
	return func() segDriver {
		s, dom := row.New(o)
		if ebr, ok := dom.(*reclaim.EBR); ok {
			ebr.SetAdvanceInterval(1)
		}
		d := segDriver{gauges: func() map[string]float64 { return cellGauges(s, dom, false) }}
		switch q := s.(type) {
		case cds.Queue[int]:
			d.enq = func(v int) bool { q.Enqueue(v); return true }
			d.deq = func() bool { _, ok := q.TryDequeue(); return ok }
			d.length = q.Len
		case cds.BoundedQueue[int]:
			d.enq = q.TryEnqueue
			d.deq = func() bool { _, ok := q.TryDequeue(); return ok }
			d.length = q.Len
		}
		return d
	}
}

// runSegCell measures one (implementation, thread-count) cell: prefill,
// drive the per-worker role closures with latency sampling, then attach
// the conservation gauges.
func runSegCell(cfg Config, th, prefill int, mk func() segDriver,
	role func(w, th int, d segDriver, c *segWorkerCounts) func(int)) Result {
	d := mk()
	for i := 0; i < prefill; i++ {
		d.enq(i)
	}
	counts := make([]segWorkerCounts, th)
	res := Run(th, cfg.ops(3000000)/th+1, func(w int) func(int) {
		return role(w, th, d, &counts[w])
	})
	res.Gauges = segHarnessGauges(counts, prefill, d.length(), d.gauges)
	return res
}

// segQueueScenarios is the S18 matrix. Three mixes: the symmetric hot
// path, an enqueue-burst shape that forces segment churn, and the pool
// injection-lane shape (many producers, one consumer) where the MPSC
// specialization is legal.
func segQueueScenarios() []Scenario {
	type impl struct {
		label string
		mk    func() segDriver
	}
	none := catalog.Options{}
	common := []impl{
		{"MS", segDriverFor("MS", none)},
		{"LCRQ", segDriverFor("LCRQ", none)},
		{"LCRQ/EBR-recycle", segDriverFor("LCRQ", catalog.Options{Scheme: catalog.EBR, Recycle: true})},
		{"MPMC-64k", segDriverFor("MPMC-64k", none)},
	}

	// hot-5050: prefilled symmetric mix — the common-case regime where the
	// LCRQ's one-FAA fast path is the whole story.
	hot := Scenario{Family: "queue-segmented", Name: "hot-5050"}
	for _, im := range common {
		mk := im.mk
		hot.Algos = append(hot.Algos, ScenarioAlgo{Label: im.label, Run: func(cfg Config, th int) Result {
			return runSegCell(cfg, th, 1024, mk, func(w, _ int, d segDriver, c *segWorkerCounts) func(int) {
				mix := NewMixGen(uint64(w)*7919+101, 50, 50)
				return func(i int) {
					if mix.Next() == 0 {
						if d.enq(i) {
							c.enq++
						}
					} else if d.deq() {
						c.deq++
					}
				}
			})
		}})
	}

	// enq-burst-64-churn: alternating 64-op enqueue bursts and drain
	// phases, starting empty. Bursts fill whole segments and the drains
	// retire them, so this is the allocation/recycling regime: watch
	// segs_allocated vs segs_reused across the LCRQ variants.
	burst := Scenario{Family: "queue-segmented", Name: "enq-burst-64-churn"}
	for _, im := range common {
		mk := im.mk
		burst.Algos = append(burst.Algos, ScenarioAlgo{Label: im.label, Run: func(cfg Config, th int) Result {
			return runSegCell(cfg, th, 0, mk, func(_, _ int, d segDriver, c *segWorkerCounts) func(int) {
				return func(i int) {
					if (i/64)%2 == 0 {
						if d.enq(i) {
							c.enq++
						}
					} else if d.deq() {
						c.deq++
					}
				}
			})
		}})
	}

	// pool-injection-1-consumer: workers 1..n produce, worker 0 is the
	// sole consumer — the shape of the executor's injection lane. The
	// single-consumer topology makes the MPSC variant legal here, so this
	// is the one cell that can price its skipped dequeue-side FAA/CAS
	// against the full LCRQ. At one thread the cell degenerates to
	// enqueue/dequeue pairs (still single-consumer).
	inject := Scenario{Family: "queue-segmented", Name: "pool-injection-1-consumer"}
	for _, im := range append(common[:3:3], impl{"MPSC", segDriverFor("MPSC", none)}, common[3]) {
		mk := im.mk
		inject.Algos = append(inject.Algos, ScenarioAlgo{Label: im.label, Run: func(cfg Config, th int) Result {
			return runSegCell(cfg, th, 0, mk, func(w, th int, d segDriver, c *segWorkerCounts) func(int) {
				if th == 1 {
					return func(i int) {
						if d.enq(i) {
							c.enq++
						}
						if d.deq() {
							c.deq++
						}
					}
				}
				if w == 0 {
					return func(int) {
						if d.deq() {
							c.deq++
						}
					}
				}
				return func(i int) {
					if d.enq(i) {
						c.enq++
					}
				}
			})
		}})
	}

	return []Scenario{hot, burst, inject}
}

// segSizeScenario (A5) sweeps the LCRQ's segment size on the symmetric
// 50/50 mix, with queue.MS and the 64k MPMC ring re-measured at every X as
// flat baselines (neither takes a segment-size parameter; re-measuring
// keeps their noise floor honest rather than drawing a single stale line).
// The sweep brackets the default: 64 retires segments fast enough to stress
// the reclaim path, 1024 amortises allocation hardest but strands more
// slots on residual queues.
func segSizeScenario() Scenario {
	name := fmt.Sprintf("A5: LCRQ segment-size sweep at %d threads, 50/50 enq-deq (MS and MPMC-64k as baselines)", fullThreads())
	wl := catalog.Workload{Name: name, Mix: []int{50, 50}, Prefill: 1024, Ops: 200000}
	s := Scenario{Family: "queue-segmented", Name: name, Xs: func(Config) []int { return []int{64, 256, 1024} }}
	for _, label := range []string{"MS", "LCRQ", "MPMC-64k"} {
		row := catalog.Find("queue", label)
		s.Algos = append(s.Algos, ScenarioAlgo{Label: label, Run: func(cfg Config, segSize int) Result {
			if label == "LCRQ" {
				return drive(cfg, row, queue.NewLCRQ[int](queue.WithSegmentSize(segSize)), wl, fullThreads())
			}
			return runWorkload(cfg, row, catalog.Options{}, wl, fullThreads())
		}})
	}
	return s
}
