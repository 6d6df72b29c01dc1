package deque

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/contend"
)

func implementations() map[string]func() cds.Deque[int] {
	impls := map[string]func() cds.Deque[int]{
		"Mutex":    func() cds.Deque[int] { return NewMutex[int]() },
		"ChaseLev": func() cds.Deque[int] { return NewChaseLev[int](8) },
	}
	for _, be := range contend.Backends() {
		name := "FC"
		if be != contend.BackendFlatCombining {
			name += "/" + be.String()
		}
		impls[name] = func() cds.Deque[int] { return NewFC[int](contend.WithBackend(be)) }
	}
	return impls
}

func TestSequentialOwnerLIFO(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			if _, ok := d.TryPopBottom(); ok {
				t.Fatal("TryPopBottom on empty deque reported ok")
			}
			if _, ok := d.TryPopTop(); ok {
				t.Fatal("TryPopTop on empty deque reported ok")
			}
			for i := 0; i < 100; i++ {
				d.PushBottom(i)
			}
			if got := d.Len(); got != 100 {
				t.Fatalf("Len = %d, want 100", got)
			}
			// Owner end behaves LIFO.
			for i := 99; i >= 50; i-- {
				v, ok := d.TryPopBottom()
				if !ok || v != i {
					t.Fatalf("TryPopBottom = (%d, %v), want (%d, true)", v, ok, i)
				}
			}
			// Steal end behaves FIFO.
			for i := 0; i < 50; i++ {
				v, ok := d.TryPopTop()
				if !ok || v != i {
					t.Fatalf("TryPopTop = (%d, %v), want (%d, true)", v, ok, i)
				}
			}
			if got := d.Len(); got != 0 {
				t.Fatalf("Len after drain = %d, want 0", got)
			}
		})
	}
}

func TestGrowthPreservesContents(t *testing.T) {
	d := NewChaseLev[int](8)
	const n = 10000 // forces many doublings
	for i := 0; i < n; i++ {
		d.PushBottom(i)
	}
	for i := 0; i < n; i++ {
		v, ok := d.TryPopTop()
		if !ok || v != i {
			t.Fatalf("TryPopTop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
}

func TestPropertyMatchesModelDeque(t *testing.T) {
	// Sequential mixed ops against a slice model. op >= 0: push;
	// op%3==0: pop bottom; else pop top.
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			f := func(ops []int16) bool {
				d := mk()
				var model []int16
				for _, op := range ops {
					switch {
					case op >= 0:
						d.PushBottom(op2int(op))
						model = append(model, op)
					case op%3 == 0:
						v, ok := d.TryPopBottom()
						if len(model) == 0 {
							if ok {
								return false
							}
							continue
						}
						want := model[len(model)-1]
						model = model[:len(model)-1]
						if !ok || v != op2int(want) {
							return false
						}
					default:
						v, ok := d.TryPopTop()
						if len(model) == 0 {
							if ok {
								return false
							}
							continue
						}
						want := model[0]
						model = model[1:]
						if !ok || v != op2int(want) {
							return false
						}
					}
				}
				return d.Len() == len(model)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func op2int(v int16) int { return int(v) }

// TestStealConservation runs one owner doing push/pop cycles against many
// thieves; every pushed value must be consumed exactly once, either by the
// owner or by a thief.
func TestStealConservation(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			thieves := runtime.GOMAXPROCS(0)
			const total = 200000

			var (
				consumed  atomic.Int64
				seenMu    sync.Mutex
				seenTwice []int
			)
			seen := make([]atomic.Bool, total)
			record := func(v int) {
				if seen[v].Swap(true) {
					seenMu.Lock()
					seenTwice = append(seenTwice, v)
					seenMu.Unlock()
				}
				consumed.Add(1)
			}

			var wg sync.WaitGroup
			stop := make(chan struct{})
			for th := 0; th < thieves; th++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if v, ok := d.TryPopTop(); ok {
							record(v)
							continue
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}

			// Owner: push bursts, pop some locally.
			next := 0
			for next < total {
				burst := 100
				if next+burst > total {
					burst = total - next
				}
				for i := 0; i < burst; i++ {
					d.PushBottom(next)
					next++
				}
				for i := 0; i < burst/2; i++ {
					if v, ok := d.TryPopBottom(); ok {
						record(v)
					}
				}
			}
			// Owner drains the rest together with thieves.
			for consumed.Load() < total {
				if v, ok := d.TryPopBottom(); ok {
					record(v)
				}
			}
			close(stop)
			wg.Wait()

			if len(seenTwice) > 0 {
				t.Fatalf("values consumed twice: %v (first few)", seenTwice[:min(5, len(seenTwice))])
			}
			for v := range seen {
				if !seen[v].Load() {
					t.Fatalf("value %d never consumed", v)
				}
			}
			if got := d.Len(); got != 0 {
				t.Fatalf("deque not empty: Len = %d", got)
			}
		})
	}
}

// TestLastElementRace hammers the single-element case where the owner and
// thieves race via the top CAS.
func TestLastElementRace(t *testing.T) {
	d := NewChaseLev[int](8)
	thieves := max(2, runtime.GOMAXPROCS(0)/2)
	const rounds = 50000

	var consumed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := d.TryPopTop(); ok {
					consumed.Add(1)
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	ownerGot := int64(0)
	for i := 0; i < rounds; i++ {
		d.PushBottom(i)
		if _, ok := d.TryPopBottom(); ok {
			ownerGot++
		}
	}
	// Whatever the owner did not get must eventually be stolen.
	for consumed.Load() < int64(rounds)-ownerGot {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if got := consumed.Load() + ownerGot; got != rounds {
		t.Fatalf("consumed %d elements, want %d", got, rounds)
	}
	if d.Len() != 0 {
		t.Fatalf("deque not empty: Len = %d", d.Len())
	}
}
