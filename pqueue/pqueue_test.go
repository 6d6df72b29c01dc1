package pqueue

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/contend"
	"github.com/cds-suite/cds/internal/xrand"
)

type impl struct {
	name string
	mk   func() cds.PriorityQueue[int]
}

func implementations() []impl {
	less := func(a, b int) bool { return a < b }
	impls := []impl{
		{name: "Heap", mk: func() cds.PriorityQueue[int] { return NewHeap[int](less) }},
		{name: "SkipList", mk: func() cds.PriorityQueue[int] { return NewSkipList[int]() }},
	}
	for _, be := range contend.Backends() {
		name := "FCHeap"
		if be != contend.BackendFlatCombining {
			name += "/" + be.String()
		}
		impls = append(impls, impl{name: name, mk: func() cds.PriorityQueue[int] {
			return NewFC[int](less, contend.WithBackend(be))
		}})
	}
	return impls
}

func TestSequentialOrder(t *testing.T) {
	for _, tt := range implementations() {
		t.Run(tt.name, func(t *testing.T) {
			q := tt.mk()
			if _, ok := q.TryDeleteMin(); ok {
				t.Fatal("TryDeleteMin on empty queue reported ok")
			}
			input := []int{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
			for _, v := range input {
				q.Insert(v)
			}
			if got := q.Len(); got != len(input) {
				t.Fatalf("Len = %d, want %d", got, len(input))
			}
			for want := 0; want < 10; want++ {
				v, ok := q.TryDeleteMin()
				if !ok || v != want {
					t.Fatalf("TryDeleteMin = (%d, %v), want (%d, true)", v, ok, want)
				}
			}
			if _, ok := q.TryDeleteMin(); ok {
				t.Fatal("drained queue returned a value")
			}
		})
	}
}

func TestDuplicatePriorities(t *testing.T) {
	for _, tt := range implementations() {
		t.Run(tt.name, func(t *testing.T) {
			q := tt.mk()
			for i := 0; i < 5; i++ {
				q.Insert(7)
				q.Insert(3)
			}
			got := make([]int, 0, 10)
			for {
				v, ok := q.TryDeleteMin()
				if !ok {
					break
				}
				got = append(got, v)
			}
			want := []int{3, 3, 3, 3, 3, 7, 7, 7, 7, 7}
			if len(got) != len(want) {
				t.Fatalf("drained %d values, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("order = %v, want %v", got, want)
				}
			}
		})
	}
}

func TestPropertyHeapsort(t *testing.T) {
	// Inserting any multiset then draining must equal sorting it.
	for _, tt := range implementations() {
		t.Run(tt.name, func(t *testing.T) {
			f := func(vals []int16) bool {
				q := tt.mk()
				for _, v := range vals {
					q.Insert(int(v))
				}
				drained := make([]int, 0, len(vals))
				for {
					v, ok := q.TryDeleteMin()
					if !ok {
						break
					}
					drained = append(drained, v)
				}
				if len(drained) != len(vals) {
					return false
				}
				want := make([]int, len(vals))
				for i, v := range vals {
					want[i] = int(v)
				}
				sort.Ints(want)
				for i := range want {
					if drained[i] != want[i] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentConservation: everything inserted comes out exactly once.
func TestConcurrentConservation(t *testing.T) {
	for _, tt := range implementations() {
		t.Run(tt.name, func(t *testing.T) {
			q := tt.mk()
			producers := runtime.GOMAXPROCS(0)
			consumers := runtime.GOMAXPROCS(0)
			const perProducer = 10000
			total := producers * perProducer

			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := xrand.New(uint64(p) + 5)
					for i := 0; i < perProducer; i++ {
						q.Insert(p*perProducer + rng.Intn(perProducer)) // values may repeat
					}
				}(p)
			}

			var consumed atomicCounter
			var cwg sync.WaitGroup
			for c := 0; c < consumers; c++ {
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					for consumed.load() < int64(total) {
						if _, ok := q.TryDeleteMin(); ok {
							consumed.add(1)
						}
					}
				}()
			}
			wg.Wait()
			cwg.Wait()
			if got := consumed.load(); got != int64(total) {
				t.Fatalf("consumed %d, want %d", got, total)
			}
			if _, ok := q.TryDeleteMin(); ok {
				t.Fatal("queue should be empty")
			}
			if got := q.Len(); got != 0 {
				t.Fatalf("Len = %d, want 0", got)
			}
		})
	}
}

// TestConcurrentMonotonicPerConsumer: each consumer's own sequence of
// minima must be non-decreasing in a phase where no inserts run (sequential
// consistency per thread even under the relaxed cross-thread ordering of
// the skip-list PQ).
func TestDrainMonotonicPerConsumer(t *testing.T) {
	for _, tt := range implementations() {
		t.Run(tt.name, func(t *testing.T) {
			q := tt.mk()
			const total = 100000
			rng := xrand.New(77)
			for i := 0; i < total; i++ {
				q.Insert(rng.Intn(1 << 20))
			}
			consumers := runtime.GOMAXPROCS(0)
			var wg sync.WaitGroup
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					last := -1
					for {
						v, ok := q.TryDeleteMin()
						if !ok {
							return
						}
						if v < last {
							t.Errorf("consumer %d: got %d after %d", c, v, last)
							return
						}
						last = v
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

func TestHeapCustomOrder(t *testing.T) {
	// Max-heap via inverted less.
	q := NewHeap[int](func(a, b int) bool { return a > b })
	for _, v := range []int{3, 1, 4, 1, 5} {
		q.Insert(v)
	}
	want := []int{5, 4, 3, 1, 1}
	for _, w := range want {
		v, ok := q.TryDeleteMin()
		if !ok || v != w {
			t.Fatalf("got (%d,%v), want (%d,true)", v, ok, w)
		}
	}
}

func TestSkipListFIFOAmongEqualPriorities(t *testing.T) {
	// With a single priority, the sequence tiebreaker makes it a FIFO.
	q := NewSkipList[int]()
	for i := 0; i < 100; i++ {
		q.Insert(42)
	}
	for i := 0; i < 100; i++ {
		if v, ok := q.TryDeleteMin(); !ok || v != 42 {
			t.Fatalf("TryDeleteMin = (%d, %v)", v, ok)
		}
	}
}

type atomicCounter struct {
	n atomic.Int64
}

func (c *atomicCounter) add(d int64) { c.n.Add(d) }
func (c *atomicCounter) load() int64 { return c.n.Load() }
