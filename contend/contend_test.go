package contend

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cds-suite/cds/internal/testprocs"
)

func TestBackoffGrowsAndResets(t *testing.T) {
	b := NewBackoff(4, 64)
	if b.cur != 4 {
		t.Fatalf("initial backoff = %d, want 4", b.cur)
	}
	for i := 0; i < 10; i++ {
		b.Pause()
	}
	if b.cur != 64 {
		t.Fatalf("backoff after pauses = %d, want capped at 64", b.cur)
	}
	b.Reset()
	if b.cur != 4 {
		t.Fatalf("backoff after reset = %d, want 4", b.cur)
	}
}

func TestBackoffZeroValue(t *testing.T) {
	var b Backoff
	b.Pause() // must not panic or divide by zero
	b.Reset()
	b.Pause()
}

func TestExchangerPairsSwap(t *testing.T) {
	e := NewExchanger[int]()
	var wg sync.WaitGroup
	results := make([]int, 2)
	oks := make([]bool, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Generous spin budget: the two goroutines will meet.
			for {
				v, ok := e.Exchange(100+i, 1<<16)
				if ok {
					results[i], oks[i] = v, true
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if !oks[0] || !oks[1] {
		t.Fatal("exchange did not complete on both sides")
	}
	if results[0] != 101 || results[1] != 100 {
		t.Fatalf("exchange results = %v, want [101 100]", results)
	}
}

func TestExchangerTimeout(t *testing.T) {
	e := NewExchanger[int]()
	if _, ok := e.Exchange(1, 4); ok {
		t.Fatal("lonely exchange succeeded")
	}
	// Slot must be withdrawn: a later pair still works.
	done := make(chan int, 1)
	go func() {
		for {
			if v, ok := e.Exchange(7, 1<<16); ok {
				done <- v
				return
			}
		}
	}()
	var got int
	for {
		if v, ok := e.Exchange(9, 1<<16); ok {
			got = v
			break
		}
	}
	if got != 7 || <-done != 9 {
		t.Fatalf("post-timeout exchange broken: got %d, partner %v", got, done)
	}
}

func TestExchangerManyPairs(t *testing.T) {
	// An even number of goroutines all exchanging must pair up perfectly:
	// the multiset of received values equals the multiset of sent values,
	// and nobody receives its own value's partner twice.
	e := NewExchanger[int]()
	const n = 16
	var wg sync.WaitGroup
	received := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				if v, ok := e.Exchange(i, 1<<14); ok {
					received[i] = v
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// Exchange is symmetric: if i received j then j received i.
	for i, v := range received {
		if v < 0 || v >= n {
			t.Fatalf("goroutine %d received out-of-range %d", i, v)
		}
		if received[v] != i {
			t.Fatalf("asymmetric exchange: %d got %d but %d got %d", i, v, v, received[v])
		}
	}
}

func TestEliminationDefaults(t *testing.T) {
	e := NewElimination[int](0, 0)
	if e.MaxWidth() != 8 {
		t.Fatalf("default max width = %d, want 8", e.MaxWidth())
	}
	if e.ActiveWidth() != 1 {
		t.Fatalf("initial active width = %d, want 1", e.ActiveWidth())
	}
}

func TestEliminationExchangesPairUp(t *testing.T) {
	testprocs.AtLeast(t, 4) // rendezvous needs partners running at once
	e := NewElimination[int](4, 512)
	e.EnableStats(true)
	const n, perG = 8, 200
	var (
		wg   sync.WaitGroup
		sum  atomic.Int64
		hits atomic.Int64
	)
	// Every goroutine contributes its value on a hit; pairs exchange, so the
	// sum of received values over all hits equals the sum of offered values
	// over all hits, and the hit count is even in aggregate.
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if v, ok := e.Exchange(g*perG + i); ok {
					sum.Add(int64(v) - int64(g*perG+i))
					hits.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if hits.Load()%2 != 0 {
		t.Fatalf("odd aggregate hit count %d: an exchange completed on one side only", hits.Load())
	}
	if sum.Load() != 0 {
		t.Fatalf("received-minus-offered sum = %d, want 0 (values must swap pairwise)", sum.Load())
	}
	h, m := e.Stats()
	if h != hits.Load() {
		t.Fatalf("Stats hits = %d, observed %d", h, hits.Load())
	}
	if h+m != n*perG {
		t.Fatalf("Stats visits = %d, want %d", h+m, n*perG)
	}
}

func TestEliminationAdaptsDown(t *testing.T) {
	// A lone visitor always times out, so the active width must collapse
	// to (or stay at) the minimum and never grow.
	e := NewElimination[int](8, 1)
	for i := 0; i < 500; i++ {
		if _, ok := e.Exchange(i); ok {
			t.Fatal("lonely visit reported a partner")
		}
	}
	if w := e.ActiveWidth(); w != 1 {
		t.Fatalf("active width after lonely traffic = %d, want 1", w)
	}
}

func TestEliminationAdaptsUpUnderTraffic(t *testing.T) {
	testprocs.AtLeast(t, 4) // rendezvous needs partners running at once
	e := NewElimination[int](8, 256)
	e.EnableStats(true)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					e.Exchange(i)
				}
			}
		}(g)
	}
	// Wait for enough hits that the sampled adapt policy has had many
	// chances to widen. On a single core a hit needs the OS to preempt one
	// spinner inside its 256-spin window (~6 ms each), so settle for fewer.
	want := int64(5000)
	if runtime.NumCPU() < 2 {
		want = 100
	}
	for {
		if h, _ := e.Stats(); h > want {
			break
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if w := e.ActiveWidth(); w < 1 || w > e.MaxWidth() {
		t.Fatalf("active width %d out of range [1,%d]", w, e.MaxWidth())
	}
	if h, _ := e.Stats(); h == 0 {
		t.Fatal("no hits recorded under paired traffic")
	}
}

func TestHandoffGiveTake(t *testing.T) {
	var h Handoff[int]
	done := make(chan bool, 1)
	go func() {
		for {
			if h.TryGive(42, 1<<16) {
				done <- true
				return
			}
		}
	}()
	var got int
	for {
		if v, ok := h.TryTake(nil); ok {
			got = v
			break
		}
	}
	if got != 42 {
		t.Fatalf("took %d, want 42", got)
	}
	if !<-done {
		t.Fatal("giver did not observe the take")
	}
}

func TestHandoffValidationAborts(t *testing.T) {
	var h Handoff[int]
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Re-offer until a taker consumes the value; aborted and withdrawn
		// offers both surface as false and are retried.
		for !h.TryGive(7, 1<<12) {
		}
	}()
	// Reject the first three claims, then accept. Every abort forces the
	// giver back around its retry loop; the final take must still deliver
	// the value, proving the slot is reusable after aborts.
	aborts := 0
	for {
		v, ok := h.TryTake(func() bool {
			if aborts < 3 {
				aborts++
				return false
			}
			return true
		})
		if ok {
			if v != 7 {
				t.Fatalf("took %d, want 7", v)
			}
			break
		}
	}
	if aborts < 3 {
		t.Fatalf("validation ran %d aborts, want 3 before accepting", aborts)
	}
	<-done
}

func TestHandoffWithdraw(t *testing.T) {
	var h Handoff[int]
	if h.TryGive(1, 2) {
		t.Fatal("lonely give succeeded")
	}
	if h.slot.Load() != nil {
		t.Fatal("withdrawn offer left in the slot")
	}
	if _, ok := h.TryTake(nil); ok {
		t.Fatal("take found a withdrawn offer")
	}
}

func TestHandoffArrayConservation(t *testing.T) {
	testprocs.AtLeast(t, 4) // a give succeeds only while a taker is scanning
	a := NewHandoffArray[int](4, 256)
	const givers, perG = 4, 300
	var (
		wg    sync.WaitGroup
		given atomic.Int64
		taken atomic.Int64
		stop  atomic.Bool
	)
	for g := 0; g < givers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if a.TryGive(g*perG + i) {
					given.Add(int64(g*perG + i))
				}
			}
		}(g)
	}
	var takerWg sync.WaitGroup
	for tkr := 0; tkr < 2; tkr++ {
		takerWg.Add(1)
		go func() {
			defer takerWg.Done()
			for !stop.Load() {
				if v, ok := a.TryTake(nil); ok {
					taken.Add(int64(v))
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	takerWg.Wait()
	// Every successfully given value was taken exactly once (and nothing
	// else was): the sums must match.
	if given.Load() != taken.Load() {
		t.Fatalf("given sum %d != taken sum %d", given.Load(), taken.Load())
	}
}

// combineBackends parameterizes the combining correctness suite: every
// backend behind the Delegator interface must pass every test.
var combineBackends = []Backend{BackendFlatCombining, BackendCCSynch, BackendDSMSynch}

func TestCombinerAppliesAllOps(t *testing.T) {
	type seq struct{ n int }
	for _, be := range combineBackends {
		t.Run(be.String(), func(t *testing.T) {
			c := NewDelegator(&seq{}, WithBackend(be))
			const workers, perW = 8, 500
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perW; i++ {
						c.Do(func(s *seq) { s.n++ })
					}
				}()
			}
			wg.Wait()
			var got int
			c.Do(func(s *seq) { got = s.n })
			if got != workers*perW {
				t.Fatalf("combined count = %d, want %d", got, workers*perW)
			}
			st := c.Stats()
			if st.Ops != workers*perW+1 {
				t.Fatalf("Stats.Ops = %d, want %d", st.Ops, workers*perW+1)
			}
			if st.Batches == 0 || st.Batches > st.Ops {
				t.Fatalf("Stats.Batches = %d out of range (1..%d)", st.Batches, st.Ops)
			}
			if st.MaxBatch == 0 || st.MaxBatch > st.Ops {
				t.Fatalf("Stats.MaxBatch = %d out of range (1..%d)", st.MaxBatch, st.Ops)
			}
			if be != BackendFlatCombining && st.MaxBatch > combineBound {
				t.Fatalf("Stats.MaxBatch = %d exceeds the %d batch bound", st.MaxBatch, combineBound)
			}
			if avg := st.AvgBatch(); avg < 1 {
				t.Fatalf("AvgBatch = %v, want >= 1 once ops ran", avg)
			}
		})
	}
}

func TestCombinerPerThreadOrder(t *testing.T) {
	// FIFO service per submitter: a thread's own operations must be applied
	// in submission order even when batched with others.
	type seq struct{ log []int }
	for _, be := range combineBackends {
		t.Run(be.String(), func(t *testing.T) {
			c := NewDelegator(&seq{}, WithBackend(be))
			const workers, perW = 4, 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perW; i++ {
						v := w*perW + i
						c.Do(func(s *seq) { s.log = append(s.log, v) })
					}
				}(w)
			}
			wg.Wait()
			var log []int
			c.Do(func(s *seq) { log = append(log, s.log...) })
			last := make(map[int]int)
			for _, v := range log {
				w, i := v/perW, v%perW
				if prev, seen := last[w]; seen && i < prev {
					t.Fatalf("worker %d op %d applied after op %d", w, i, prev)
				}
				last[w] = v % perW
			}
			if len(log) != workers*perW {
				t.Fatalf("log length = %d, want %d", len(log), workers*perW)
			}
		})
	}
}

func TestDelegatorSingleThreadSequence(t *testing.T) {
	// Uncontended operation: every backend must serve a lone caller
	// directly (CCSynch through the tail dummy's combine state, DSMSynch
	// through the tail-CAS retirement) and keep results ordered.
	type seq struct{ vals []int }
	for _, be := range combineBackends {
		t.Run(be.String(), func(t *testing.T) {
			c := NewDelegator(&seq{}, WithBackend(be))
			for i := 0; i < 100; i++ {
				c.Do(func(s *seq) { s.vals = append(s.vals, i) })
			}
			var got []int
			c.Do(func(s *seq) { got = append(got, s.vals...) })
			if len(got) != 100 {
				t.Fatalf("applied %d ops, want 100", len(got))
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("vals[%d] = %d, want %d", i, v, i)
				}
			}
			st := c.Stats()
			if st.Ops != 101 || st.Batches != 101 {
				t.Fatalf("sequential stats = %+v, want 101 ops in 101 batches", st)
			}
			if st.Handoffs != 0 {
				t.Fatalf("sequential run recorded %d handoffs, want 0", st.Handoffs)
			}
		})
	}
}

func TestBackendString(t *testing.T) {
	want := map[Backend]string{
		BackendFlatCombining: "FlatCombining",
		BackendCCSynch:       "CC-Synch",
		BackendDSMSynch:      "DSM-Synch",
	}
	for _, be := range Backends() {
		if be.String() != want[be] {
			t.Fatalf("Backend(%d).String() = %q, want %q", be, be.String(), want[be])
		}
	}
}

// TestCombinerNoLostWakeupUnderBackoff pins the no-lost-wakeup property the
// Backoff-paced wait loop must preserve: a record claimed by a combiner
// that is still mid-batch, and a thread whose own combine pass finished
// before its record was served, must both resolve without external
// prodding. A deliberately slow operation maximises the
// claimed-but-unserved window; the test fails by timeout if any Do never
// returns.
func TestCombinerNoLostWakeupUnderBackoff(t *testing.T) {
	for _, be := range combineBackends {
		t.Run(be.String(), func(t *testing.T) {
			type seq struct{ n int }
			c := NewDelegator(&seq{}, WithBackend(be))
			const workers, perW = 8, 40
			done := make(chan struct{})
			go func() {
				defer close(done)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < perW; i++ {
							c.Do(func(s *seq) {
								// A slow batch member: while the combiner
								// grinds through this, other threads' records
								// sit claimed but unserved.
								if s.n%17 == 0 {
									for spin := 0; spin < 1<<12; spin++ {
										_ = spin
									}
								}
								s.n++
							})
						}
					}(w)
				}
				wg.Wait()
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("lost wakeup: workers still blocked in Do after 30s")
			}
			var got int
			c.Do(func(s *seq) { got = s.n })
			if got != workers*perW {
				t.Fatalf("combined count = %d, want %d", got, workers*perW)
			}
		})
	}
}

// TestCCSynchHandoffAtBound drives enough concurrent traffic that at least
// one combining pass should hit the batch bound and hand the role over;
// the gauge assertions are conservative (handoffs may legitimately be zero
// on an unloaded machine) but the count must never exceed batches.
func TestDelegatorHandoffGaugeSane(t *testing.T) {
	type seq struct{ n int }
	for _, be := range combineBackends {
		t.Run(be.String(), func(t *testing.T) {
			c := NewDelegator(&seq{}, WithBackend(be))
			const workers, perW = 8, 300
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perW; i++ {
						c.Do(func(s *seq) { s.n++ })
					}
				}()
			}
			wg.Wait()
			st := c.Stats()
			if be == BackendFlatCombining {
				// FC handoffs are not tied to batches; they count re-waits.
				if st.Handoffs > st.Ops {
					t.Fatalf("handoffs %d > ops %d", st.Handoffs, st.Ops)
				}
				return
			}
			if st.Handoffs > st.Batches {
				t.Fatalf("handoffs %d > batches %d", st.Handoffs, st.Batches)
			}
		})
	}
}

func TestCombiningTreeFetchAddDistinct(t *testing.T) {
	const workers, perWorker = 8, 300
	tree := NewCombiningTree(workers)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen = make(map[int64]bool, workers*perWorker)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tree.Handle(w)
			priors := make([]int64, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				priors = append(priors, h.FetchAdd(1))
			}
			mu.Lock()
			defer mu.Unlock()
			for _, p := range priors {
				if seen[p] {
					t.Errorf("duplicate FetchAdd prior %d", p)
				}
				seen[p] = true
			}
		}(w)
	}
	wg.Wait()
	if got := tree.Load(); got != workers*perWorker {
		t.Fatalf("Load = %d, want %d", got, workers*perWorker)
	}
}
