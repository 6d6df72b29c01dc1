package barrier

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cds-suite/cds/internal/testprocs"
)

// waiter is the common per-party interface of all three barrier types.
type waiter interface{ Wait() }

func barriers(n int) map[string]func() []waiter {
	return map[string]func() []waiter{
		"Sense": func() []waiter {
			b := NewSense(n)
			hs := make([]waiter, n)
			for i := range hs {
				hs[i] = b.Handle()
			}
			return hs
		},
		"Tree": func() []waiter {
			b := NewTree(n)
			hs := make([]waiter, n)
			for i := range hs {
				hs[i] = b.Handle()
			}
			return hs
		},
		"Dissemination": func() []waiter {
			b := NewDissemination(n)
			hs := make([]waiter, n)
			for i := range hs {
				hs[i] = b.Handle()
			}
			return hs
		},
	}
}

// TestPhaseIsolation is the fundamental barrier property: no party enters
// phase k+1 before every party has finished phase k. Each party increments
// a per-phase counter before Wait; after Wait the counter must equal n.
func TestPhaseIsolation(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16} {
		for name, mk := range barriers(n) {
			t.Run(name, func(t *testing.T) {
				const phases = 200
				hs := mk()
				arrived := make([]atomic.Int32, phases)
				var wg sync.WaitGroup
				for p := 0; p < n; p++ {
					wg.Add(1)
					go func(h waiter) {
						defer wg.Done()
						for ph := 0; ph < phases; ph++ {
							arrived[ph].Add(1)
							h.Wait()
							if got := arrived[ph].Load(); got != int32(n) {
								t.Errorf("phase %d: released with %d/%d arrivals", ph, got, n)
								return
							}
						}
					}(hs[p])
				}
				wg.Wait()
			})
		}
	}
}

// TestNoEarlySpill verifies that a party cannot lap the others: after each
// Wait, the shared phase counter advances in lockstep.
func TestLockstepPhases(t *testing.T) {
	n := testprocs.AtLeast(t, 2) // one party cannot lap itself
	for name, mk := range barriers(n) {
		t.Run(name, func(t *testing.T) {
			const phases = 500
			hs := mk()
			var sum atomic.Int64 // each party adds its phase number before the barrier
			var wg sync.WaitGroup
			for p := 0; p < n; p++ {
				wg.Add(1)
				go func(h waiter) {
					defer wg.Done()
					for ph := 0; ph < phases; ph++ {
						sum.Add(1)
						h.Wait()
						// After release, all n contributions of this phase
						// (and none of the next) are visible... next-phase
						// contributions may race in, so check lower bound
						// and modality: sum ∈ [n(ph+1), n(ph+2)).
						got := sum.Load()
						lo, hi := int64(n*(ph+1)), int64(n*(ph+2))
						if got < lo || got >= hi {
							t.Errorf("phase %d: sum = %d, want [%d, %d)", ph, got, lo, hi)
							return
						}
					}
				}(hs[p])
			}
			wg.Wait()
		})
	}
}

func TestHandleExhaustion(t *testing.T) {
	b := NewSense(2)
	b.Handle()
	b.Handle()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("third Sense handle did not panic")
			}
		}()
		b.Handle()
	}()

	tr := NewTree(1)
	tr.Handle()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Tree handle did not panic")
			}
		}()
		tr.Handle()
	}()

	d := NewDissemination(1)
	d.Handle()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Dissemination handle did not panic")
			}
		}()
		d.Handle()
	}()
}

func TestConstructorValidation(t *testing.T) {
	for name, mk := range map[string]func(){
		"Sense":         func() { NewSense(0) },
		"Tree":          func() { NewTree(-1) },
		"Dissemination": func() { NewDissemination(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s constructor accepted nonpositive n", name)
				}
			}()
			mk()
		}()
	}
}

func TestSinglePartyBarrier(t *testing.T) {
	// n=1 must never block.
	for name, mk := range barriers(1) {
		t.Run(name, func(t *testing.T) {
			h := mk()[0]
			for i := 0; i < 1000; i++ {
				h.Wait()
			}
		})
	}
}

func TestTreeFanInWiring(t *testing.T) {
	// All parties' arrivals must propagate: total fan-in at leaves == n.
	for _, n := range []int{1, 2, 3, 4, 7, 8, 9, 31} {
		b := NewTree(n)
		var leafSum int32
		for _, l := range b.leaves {
			leafSum += l.fanIn
		}
		if leafSum != int32(n) {
			t.Fatalf("n=%d: leaf fan-in sum = %d", n, leafSum)
		}
	}
}
