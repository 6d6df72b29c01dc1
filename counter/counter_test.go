package counter

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/contend"
)

func testSequential(t *testing.T, c cds.Counter) {
	t.Helper()
	if got := c.Load(); got != 0 {
		t.Fatalf("fresh counter Load = %d, want 0", got)
	}
	c.Inc()
	c.Inc()
	c.Add(5)
	c.Add(-3)
	if got := c.Load(); got != 4 {
		t.Fatalf("Load = %d, want 4", got)
	}
}

func testConcurrentSum(t *testing.T, c cds.Counter, exact func() int64) {
	t.Helper()
	workers := 2 * runtime.GOMAXPROCS(0)
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%3 == 0 {
					c.Add(2)
				} else {
					c.Inc()
				}
			}
		}(w)
	}
	wg.Wait()
	// Each worker adds: ceil(perWorker/3) twos and the rest ones.
	twos := (perWorker + 2) / 3
	want := int64(workers) * int64(2*twos+(perWorker-twos))
	if got := exact(); got != want {
		t.Fatalf("final count = %d, want %d", got, want)
	}
}

func TestCountersSequential(t *testing.T) {
	type counterCase struct {
		name string
		c    cds.Counter
	}
	tests := []counterCase{
		{name: "Locked", c: new(Locked)},
		{name: "Atomic", c: new(Atomic)},
		{name: "Sharded", c: NewSharded(8)},
		{name: "CombiningTree", c: NewCombiningTree(8)},
	}
	for _, be := range contend.Backends() {
		name := "Combining"
		if be != contend.BackendFlatCombining {
			name += "/" + be.String()
		}
		tests = append(tests, counterCase{name: name, c: NewCombining(contend.WithBackend(be))})
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			testSequential(t, tt.c)
		})
	}
	t.Run("Approx", func(t *testing.T) {
		c := NewApprox(4, 16)
		c.Inc()
		c.Inc()
		c.Add(5)
		c.Add(-3)
		if got := c.LoadExact(); got != 4 {
			t.Fatalf("LoadExact = %d, want 4", got)
		}
	})
}

func TestCountersConcurrent(t *testing.T) {
	t.Run("Locked", func(t *testing.T) {
		c := new(Locked)
		testConcurrentSum(t, c, c.Load)
	})
	t.Run("Atomic", func(t *testing.T) {
		c := new(Atomic)
		testConcurrentSum(t, c, c.Load)
	})
	t.Run("Sharded", func(t *testing.T) {
		c := NewSharded(0)
		testConcurrentSum(t, c, c.Load)
	})
	t.Run("Approx", func(t *testing.T) {
		c := NewApprox(0, 64)
		testConcurrentSum(t, c, c.LoadExact)
	})
	t.Run("CombiningTree", func(t *testing.T) {
		c := NewCombiningTree(2 * runtime.GOMAXPROCS(0))
		testConcurrentSum(t, c, c.Load)
	})
	for _, be := range contend.Backends() {
		t.Run("Combining/"+be.String(), func(t *testing.T) {
			c := NewCombining(contend.WithBackend(be))
			testConcurrentSum(t, c, c.Load)
			if st := c.Stats(); st.Ops == 0 || st.Batches == 0 {
				t.Fatalf("backend gauges empty after traffic: %+v", st)
			}
		})
	}
}

func TestCombiningFetchAddDistinct(t *testing.T) {
	// FetchAdd priors within one counter must be unique: each operation
	// observes the value immediately before its own position in a batch.
	for _, be := range contend.Backends() {
		t.Run(be.String(), func(t *testing.T) {
			c := NewCombining(contend.WithBackend(be))
			const workers, perW = 8, 200
			var (
				wg   sync.WaitGroup
				mu   sync.Mutex
				seen = make(map[int64]bool, workers*perW)
			)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					priors := make([]int64, 0, perW)
					for i := 0; i < perW; i++ {
						priors = append(priors, c.FetchAdd(1))
					}
					mu.Lock()
					defer mu.Unlock()
					for _, p := range priors {
						if seen[p] {
							t.Errorf("duplicate FetchAdd prior %d", p)
						}
						seen[p] = true
					}
				}()
			}
			wg.Wait()
			if got := c.Load(); got != workers*perW {
				t.Fatalf("Load = %d, want %d", got, workers*perW)
			}
		})
	}
}

func TestShardedHandle(t *testing.T) {
	c := NewSharded(8)
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := c.Handle()
			for i := 0; i < perWorker; i++ {
				h.Inc()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Load(), int64(workers*perWorker); got != want {
		t.Fatalf("Load = %d, want %d", got, want)
	}
}

func TestShardedPowerOfTwoShards(t *testing.T) {
	for give, want := range map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16} {
		c := NewSharded(give)
		if len(c.shards) != want {
			t.Fatalf("NewSharded(%d) created %d shards, want %d", give, len(c.shards), want)
		}
	}
}

func TestApproxBoundedError(t *testing.T) {
	c := NewApprox(4, 16)
	total := int64(0)
	for i := 0; i < 10000; i++ {
		c.Inc()
		total++
		if lag := total - c.Load(); lag < 0 || lag > c.MaxError()+1 {
			t.Fatalf("after %d incs, Load lags by %d, bound %d", total, lag, c.MaxError())
		}
	}
	if got := c.LoadExact(); got != total {
		t.Fatalf("LoadExact = %d, want %d", got, total)
	}
}

func TestApproxNegativeFlush(t *testing.T) {
	c := NewApprox(2, 8)
	for i := 0; i < 1000; i++ {
		c.Add(-1)
	}
	if got := c.LoadExact(); got != -1000 {
		t.Fatalf("LoadExact = %d, want -1000", got)
	}
	if c.Load() > -1000+c.MaxError() {
		// Most of the decrements must have been flushed to the global.
		t.Fatalf("Load = %d has not flushed within bound %d", c.Load(), c.MaxError())
	}
}

func TestCombiningTreeFetchAdd(t *testing.T) {
	// FetchAdd results across all threads must be distinct and form the set
	// {0, 1, ..., total-1} when every delta is 1: the tree linearizes
	// increments and hands each thread a unique prior value.
	const workers, perWorker = 8, 500
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
	if t.Failed() {
		return
	}
	for i := int64(0); i < workers*perWorker; i++ {
		if !seen[i] {
			t.Fatalf("prior value %d never returned", i)
		}
	}
	if got := tree.Load(); got != workers*perWorker {
		t.Fatalf("Load = %d, want %d", got, workers*perWorker)
	}
}

func TestCombiningTreeWidthOne(t *testing.T) {
	tree := NewCombiningTree(1)
	h := tree.Handle(0)
	for i := int64(0); i < 100; i++ {
		if got := h.FetchAdd(1); got != i {
			t.Fatalf("FetchAdd prior = %d, want %d", got, i)
		}
	}
}

func TestCombiningTreeHandleValidation(t *testing.T) {
	tree := NewCombiningTree(4)
	for _, id := range []int{-1, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Handle(%d) did not panic", id)
				}
			}()
			tree.Handle(id)
		}()
	}
}

func TestNewCombiningTreeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCombiningTree(0) did not panic")
		}
	}()
	NewCombiningTree(0)
}

func TestCounterPropertyMatchesModel(t *testing.T) {
	// Sequential property check: any sequence of deltas applied to each
	// implementation matches the plain sum.
	f := func(deltas []int16) bool {
		impls := []cds.Counter{
			new(Locked), new(Atomic), NewSharded(4), NewCombiningTree(2),
		}
		var want int64
		for _, d := range deltas {
			want += int64(d)
		}
		for _, c := range impls {
			for _, d := range deltas {
				c.Add(int64(d))
			}
			if c.Load() != want {
				return false
			}
		}
		// Approx via exact read.
		a := NewApprox(2, 4)
		for _, d := range deltas {
			a.Add(int64(d))
		}
		return a.LoadExact() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
