package queue

import (
	"sync"
	"testing"

	"github.com/cds-suite/cds/reclaim"
)

// segOpts prepends a small segment size so the stress runs churn through
// hundreds of segments instead of staying inside the seed.
func segOpts(opts []Option) []Option {
	return append([]Option{WithSegmentSize(4)}, opts...)
}

func TestLCRQPlain(t *testing.T) {
	q := NewLCRQ[int](WithSegmentSize(4))
	for i := 0; i < 100; i++ {
		q.Enqueue(i)
	}
	if got := q.Len(); got != 100 {
		t.Fatalf("Len = %d, want 100", got)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.TryDequeue()
		if !ok || v != i {
			t.Fatalf("TryDequeue = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("expected empty")
	}
	if !q.Empty() {
		t.Fatal("Empty() = false after drain")
	}
	s := q.Stats()
	if s.SegsAllocated < 100/4 {
		t.Fatalf("SegsAllocated = %d, want >= 25 with 4-slot segments", s.SegsAllocated)
	}
	if s.SegsLive < 1 {
		t.Fatalf("SegsLive = %d, want >= 1 (the head)", s.SegsLive)
	}
}

func TestLCRQReclaimVariants(t *testing.T) {
	for name, mkOpts := range reclaimVariants() {
		t.Run(name, func(t *testing.T) {
			opts := segOpts(mkOpts())
			stressQueue(t, NewLCRQ[int](opts...), domainOf(opts))
		})
	}
}

// TestMPSCReclaimVariants is the single-consumer analogue of stressQueue:
// producers enqueue disjoint ranges while one consumer drains, and every
// value must come out exactly once.
func TestMPSCReclaimVariants(t *testing.T) {
	for name, mkOpts := range reclaimVariants() {
		t.Run(name, func(t *testing.T) {
			opts := segOpts(mkOpts())
			dom := domainOf(opts)
			q := NewMPSC[int](opts...)
			const producers, ops = 4, 5000
			var wg sync.WaitGroup
			for w := 0; w < producers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						q.Enqueue(w*ops + i)
					}
				}(w)
			}
			produced := make(chan struct{})
			go func() { wg.Wait(); close(produced) }()
			seen := make(map[int]bool, producers*ops)
			done := false
			for !done {
				v, ok := q.TryDequeue()
				if !ok {
					select {
					case <-produced:
						// One last sweep after all producers finished.
						for {
							v, ok := q.TryDequeue()
							if !ok {
								break
							}
							if seen[v] {
								t.Fatalf("value %d delivered twice", v)
							}
							seen[v] = true
						}
						done = true
					default:
					}
					continue
				}
				if seen[v] {
					t.Fatalf("value %d delivered twice", v)
				}
				seen[v] = true
			}
			if len(seen) != producers*ops {
				t.Fatalf("conservation broken: %d values out, want %d", len(seen), producers*ops)
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after drain, want 0", q.Len())
			}
			if dom.Reclaimed() == 0 {
				t.Fatal("domain reclaimed nothing — segment retire path inert")
			}
		})
	}
}

// TestLCRQTantrumClose forces the closed-bit path deterministically: with
// the first half of a 16-slot segment pre-abandoned (simulating
// overtaking dequeuers), a single enqueuer must burn through
// tantrumBudget failed publications, seal the segment, and land its value
// in a fresh one.
func TestLCRQTantrumClose(t *testing.T) {
	q := NewLCRQ[int](WithSegmentSize(16))
	seed := q.tail.Load()
	for i := 0; i < tantrumBudget; i++ {
		if !seed.slots[i].state.CompareAndSwap(slotEmpty, slotAbandoned) {
			t.Fatalf("slot %d not empty in fresh segment", i)
		}
	}
	q.Enqueue(42)
	if !segIsClosed(seed.enq.Load()) {
		t.Fatal("segment not sealed after tantrumBudget failed publications")
	}
	s := q.Stats()
	if s.SegsClosed != 1 {
		t.Fatalf("SegsClosed = %d, want 1", s.SegsClosed)
	}
	if s.EnqSlowpath < int64(tantrumBudget) {
		t.Fatalf("EnqSlowpath = %d, want >= %d", s.EnqSlowpath, tantrumBudget)
	}
	if s.SegsAllocated != 2 {
		t.Fatalf("SegsAllocated = %d, want 2 (seed + appended)", s.SegsAllocated)
	}
	v, ok := q.TryDequeue()
	if !ok || v != 42 {
		t.Fatalf("TryDequeue = %d,%v, want 42,true", v, ok)
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("expected empty after the sealed segment drained")
	}
}

// TestLCRQRecyclingReuses pins the allocation win at segment granularity.
func TestLCRQRecyclingReuses(t *testing.T) {
	d := reclaim.NewEBR()
	d.SetAdvanceInterval(1)
	q := NewLCRQ[int](WithReclaim(d), WithRecycling(), WithSegmentSize(4))
	for i := 0; i < 5000; i++ {
		q.Enqueue(i)
		q.TryDequeue()
	}
	if q.segs.Reused() == 0 {
		t.Fatal("recycler never reused a segment across 5000 enq/deq cycles")
	}
}

// drainReclaim pushes a deferred domain to quiescence: parked guards are
// released (their buffered retirements become domain orphans) and the
// backend's own drain hook runs until nothing is pending. Bounded so a
// leak fails the test instead of hanging it.
func drainReclaim(t *testing.T, p *reclaim.Pool, dom reclaim.Domain) {
	t.Helper()
	p.Drain()
	for i := 0; i < 100; i++ {
		if dom.Pending() == 0 {
			return
		}
		switch d := dom.(type) {
		case *reclaim.EBR:
			d.Collector().TryAdvance() // ages orphan bags out, then frees them
		case *reclaim.HP:
			d.HazardDomain().Drain() // scans the ownerless retire list
		default:
			t.Fatalf("no drain hook for domain %q", dom.Name())
		}
	}
	t.Fatalf("domain did not drain: %d objects still pending at quiescence", dom.Pending())
}

// TestLCRQStatsConservation checks the S18 gauge identity the CI smoke
// validation asserts — allocated == recycled + live + retired-pending —
// and that pending garbage drains to 0 at quiescence (no leaked
// segments).
func TestLCRQStatsConservation(t *testing.T) {
	for name, mkOpts := range reclaimVariants() {
		t.Run(name, func(t *testing.T) {
			opts := segOpts(mkOpts())
			dom := domainOf(opts)
			q := NewLCRQ[int](opts...)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 4000; i++ {
						q.Enqueue(w*4000 + i)
						q.TryDequeue()
					}
				}(w)
			}
			wg.Wait()
			for {
				if _, ok := q.TryDequeue(); !ok {
					break
				}
			}
			drainReclaim(t, q.mem, dom)
			s := q.Stats()
			if s.SegsAllocated != s.SegsRecycled+s.SegsLive+s.SegsRetiredPending {
				t.Fatalf("segment conservation broken: %+v", s)
			}
			if s.SegsRetiredPending != 0 {
				t.Fatalf("SegsRetiredPending = %d at quiescence, want 0", s.SegsRetiredPending)
			}
			if s.SegsLive < 1 {
				t.Fatalf("SegsLive = %d, want >= 1", s.SegsLive)
			}
			if s.EnqSlowpath < 0 || s.DeqAbandoned < 0 {
				t.Fatalf("negative op gauges: %+v", s)
			}
		})
	}
}

// TestLCRQStalledConsumerPendingBounded pins the hazard-pointer promise at
// segment granularity: a consumer stalled mid-operation (guard held, head
// segment published in its hazard slot) must not stop the rest of the
// retired segments from being freed — pending garbage stays bounded by
// the one protected segment plus the scan threshold while the queue
// churns hundreds of segments past it.
func TestLCRQStalledConsumerPendingBounded(t *testing.T) {
	d := reclaim.NewHP()
	d.SetScanThreshold(1)
	q := NewLCRQ[int](WithReclaim(d), WithRecycling(), WithSegmentSize(4))

	// The stalled consumer: protect the current head and go quiet.
	g := q.mem.Enter()
	stalled := reclaim.Load(g, 0, &q.head)
	_ = stalled

	const churn = 2000 // ~500 retired segments at 4 slots each
	for i := 0; i < churn; i++ {
		q.Enqueue(i)
		v, ok := q.TryDequeue()
		if !ok || v != i {
			t.Fatalf("churn broken at %d: got %d,%v", i, v, ok)
		}
	}
	if p := d.Pending(); p > 8 {
		t.Fatalf("pending garbage not bounded under a stalled consumer: %d segments", p)
	}

	// The consumer wakes; everything must now drain to zero.
	q.mem.Exit(g)
	drainReclaim(t, q.mem, d)
	if s := q.Stats(); s.SegsRetiredPending != 0 {
		t.Fatalf("SegsRetiredPending = %d after stall released, want 0", s.SegsRetiredPending)
	}
}
