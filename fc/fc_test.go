package fc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cds-suite/cds/contend"
)

// The combining core's own suite lives in package contend; this pins the
// one property the containers lean on — a result captured by the closure is
// visible once Do returns — through the constructor they use.
func TestCombinerResultsVisible(t *testing.T) {
	type box struct{ v int }
	c := contend.NewCombiner(&box{v: 7})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				var read int
				c.Do(func(s *box) { read = s.v })
				if read != 7 {
					t.Errorf("read %d, want 7", read)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFCQueueFIFO(t *testing.T) {
	for _, be := range contend.Backends() {
		t.Run(be.String(), func(t *testing.T) {
			q := NewQueue[int](contend.WithBackend(be))
			if _, ok := q.TryDequeue(); ok {
				t.Fatal("empty queue dequeued")
			}
			for i := 0; i < 100; i++ {
				q.Enqueue(i)
			}
			if q.Len() != 100 {
				t.Fatalf("Len = %d", q.Len())
			}
			for i := 0; i < 100; i++ {
				v, ok := q.TryDequeue()
				if !ok || v != i {
					t.Fatalf("TryDequeue = (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			if st := q.Stats(); st.Ops == 0 || st.Batches == 0 {
				t.Fatalf("backend gauges empty after traffic: %+v", st)
			}
		})
	}
}

func TestFCStackLIFO(t *testing.T) {
	for _, be := range contend.Backends() {
		t.Run(be.String(), func(t *testing.T) {
			s := NewStack[string](contend.WithBackend(be))
			for _, v := range []string{"a", "b", "c"} {
				s.Push(v)
			}
			for _, want := range []string{"c", "b", "a"} {
				v, ok := s.TryPop()
				if !ok || v != want {
					t.Fatalf("TryPop = (%q,%v), want (%q,true)", v, ok, want)
				}
			}
			if _, ok := s.TryPop(); ok {
				t.Fatal("empty stack popped")
			}
		})
	}
}

func TestFCQueueConcurrentConservation(t *testing.T) {
	for _, be := range contend.Backends() {
		t.Run(be.String(), func(t *testing.T) {
			testFCQueueConservation(t, be)
		})
	}
}

func testFCQueueConservation(t *testing.T, be contend.Backend) {
	q := NewQueue[int](contend.WithBackend(be))
	producers := runtime.GOMAXPROCS(0)
	const perProducer = 10000
	total := producers * perProducer

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(p*perProducer + i)
			}
		}(p)
	}
	var consumed atomic.Int64
	seen := make([]atomic.Bool, total)
	var cwg sync.WaitGroup
	for cidx := 0; cidx < producers; cidx++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for consumed.Load() < int64(total) {
				if v, ok := q.TryDequeue(); ok {
					if seen[v].Swap(true) {
						t.Errorf("value %d dequeued twice", v)
						return
					}
					consumed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	cwg.Wait()
	if t.Failed() {
		return
	}
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("value %d lost", i)
		}
	}
}
