package stack

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/internal/testprocs"
)

func implementations() map[string]func() cds.Stack[int] {
	return map[string]func() cds.Stack[int]{
		"Mutex":       func() cds.Stack[int] { return NewMutex[int]() },
		"Treiber":     func() cds.Stack[int] { return NewTreiber[int]() },
		"Elimination": func() cds.Stack[int] { return NewElimination[int](4, 32) },
	}
}

func TestSequentialLIFO(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if _, ok := s.TryPop(); ok {
				t.Fatal("TryPop on empty stack reported ok")
			}
			for i := 1; i <= 100; i++ {
				s.Push(i)
			}
			if got := s.Len(); got != 100 {
				t.Fatalf("Len = %d, want 100", got)
			}
			for i := 100; i >= 1; i-- {
				v, ok := s.TryPop()
				if !ok || v != i {
					t.Fatalf("TryPop = (%d, %v), want (%d, true)", v, ok, i)
				}
			}
			if _, ok := s.TryPop(); ok {
				t.Fatal("TryPop on drained stack reported ok")
			}
			if got := s.Len(); got != 0 {
				t.Fatalf("Len after drain = %d, want 0", got)
			}
		})
	}
}

func TestPropertyMatchesModel(t *testing.T) {
	// Any sequential mix of pushes and pops behaves like a slice model.
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			f := func(ops []int16) bool {
				s := mk()
				var model []int16
				for _, op := range ops {
					if op >= 0 {
						s.Push(int(op))
						model = append(model, op)
					} else {
						v, ok := s.TryPop()
						if len(model) == 0 {
							if ok {
								return false
							}
							continue
						}
						want := model[len(model)-1]
						model = model[:len(model)-1]
						if !ok || v != int(want) {
							return false
						}
					}
				}
				return s.Len() == len(model)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentConservation pushes disjoint value ranges from producer
// goroutines while consumers pop; afterwards every pushed value must have
// been popped exactly once.
func TestConcurrentConservation(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			producers := runtime.GOMAXPROCS(0)
			consumers := runtime.GOMAXPROCS(0)
			const perProducer = 20000
			total := producers * perProducer

			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					base := p * perProducer
					for i := 0; i < perProducer; i++ {
						s.Push(base + i)
					}
				}(p)
			}

			popped := make(chan int, total)
			var consumed atomic.Int64
			var cwg sync.WaitGroup
			for c := 0; c < consumers; c++ {
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					for consumed.Load() < int64(total) {
						if v, ok := s.TryPop(); ok {
							consumed.Add(1)
							popped <- v
						}
					}
				}()
			}
			wg.Wait()
			cwg.Wait()
			close(popped)

			seen := make([]bool, total)
			n := 0
			for v := range popped {
				if v < 0 || v >= total {
					t.Fatalf("popped out-of-range value %d", v)
				}
				if seen[v] {
					t.Fatalf("value %d popped twice", v)
				}
				seen[v] = true
				n++
			}
			if n != total {
				t.Fatalf("popped %d values, want %d", n, total)
			}
			if got := s.Len(); got != 0 {
				t.Fatalf("stack not empty after drain: Len = %d", got)
			}
		})
	}
}

// TestPerThreadLIFOOrder verifies that values pushed by a single goroutine
// come out in LIFO order relative to each other when popped by the same
// goroutine with no interleaving from others on those values' positions —
// a weak but implementation-independent stack ordering check under
// concurrency.
func TestPushPopPairsUnderContention(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			workers := 2 * runtime.GOMAXPROCS(0)
			const iters = 10000
			var wg sync.WaitGroup
			var balance atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						s.Push(w)
						if _, ok := s.TryPop(); ok {
							// net zero
						} else {
							balance.Add(1)
						}
					}
				}(w)
			}
			wg.Wait()
			// Every failed pop leaves one extra element behind.
			if got, want := int64(s.Len()), balance.Load(); got != want {
				t.Fatalf("Len = %d, want %d leftover elements", got, want)
			}
		})
	}
}

func TestEliminationStats(t *testing.T) {
	s := NewElimination[int](2, 256)
	s.EnableStats(true)
	var wg sync.WaitGroup
	workers := testprocs.AtLeast(t, 4) // a failed head CAS needs a concurrent winner
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				if w%2 == 0 {
					s.Push(i)
				} else {
					s.TryPop()
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses := s.Stats()
	if hits < 0 || misses < 0 {
		t.Fatalf("negative stats: hits=%d misses=%d", hits, misses)
	}
	// Under this contention some elimination visits must have happened at
	// all (hit or miss); the hit *rate* is hardware-dependent, so only the
	// accounting is asserted here. T3 reports the rates.
	if hits+misses == 0 {
		t.Log("no elimination visits recorded (low contention run) — accounting path unexercised")
	}
}

func TestEliminationDefaults(t *testing.T) {
	s := NewElimination[string](0, 0)
	if s.arr.MaxWidth() != 8 {
		t.Fatalf("default max width = %d, want 8", s.arr.MaxWidth())
	}
	s.Push("a")
	if v, ok := s.TryPop(); !ok || v != "a" {
		t.Fatalf("TryPop = (%q, %v), want (a, true)", v, ok)
	}
}
