package lincheck_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/cache"
	"github.com/cds-suite/cds/catalog"
	"github.com/cds-suite/cds/dual"
	"github.com/cds-suite/cds/internal/testprocs"
	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/lincheck"
	"github.com/cds-suite/cds/pool"
	"github.com/cds-suite/cds/reclaim"
	"github.com/cds-suite/cds/stm"
)

// Reclamation-enabled variants run with aggressive thresholds (advance or
// scan on nearly every retire) so nodes are retired — and, where recycling
// is on, actually reused — inside the tiny recorded windows. Any
// linearizability violation introduced by premature reuse (an ABA the
// guard protocol failed to prevent) shows up as an impossible history.
func ebrAggressive() *reclaim.EBR {
	d := reclaim.NewEBR()
	d.SetAdvanceInterval(1)
	return d
}

func hpAggressive() *reclaim.HP {
	d := reclaim.NewHP()
	d.SetScanThreshold(1)
	return d
}

// The integration strategy: many small windows (few clients, few ops each)
// recorded from the real structures under genuine concurrency, each window
// checked exhaustively (see lincheck.Stress).
const (
	linClients    = 3
	linOpsPerCli  = 4
	linRounds     = 40
	linKeyRange   = 3 // tiny key space maximises conflicts
	linValueRange = 4
)

func runWindows(t *testing.T, model lincheck.Model, window func() func(client int, rng *xrand.Rand, rec *lincheck.Recorder)) {
	t.Helper()
	testprocs.AtLeast(t, 4) // genuinely interleaved histories on any box
	if err := lincheck.Stress(model, linRounds, linClients, window); err != nil {
		t.Fatal(err)
	}
}

// TestLinearizableCatalogue checks every linearizable row of the catalogue
// under every option point it accepts — reclamation domain × recycling,
// combining backend — with the tight parameters, against its shape's
// sequential model. Registering a variant in the catalogue is what puts it
// here.
func TestLinearizableCatalogue(t *testing.T) {
	for _, tg := range catalog.Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			runWindows(t, tg.Model, func() func(int, *xrand.Rand, *lincheck.Recorder) {
				return tg.Window(linClients, linOpsPerCli)
			})
		})
	}
}

// TestLinearizableCaches records windows from one shard of the bounded
// cache (WithShards(1) pins every key to a single lock domain) under each
// eviction policy, checked against the lossy-map CacheModel. The capacity
// sits below the key range so evictions fire inside the windows: the
// checker then verifies the lossy contract — hits return the latest
// value, an observed miss means the key stays absent until re-Set — while
// *which* victim each policy picks is pinned separately by the
// deterministic unit traces in package cache.
func TestLinearizableCaches(t *testing.T) {
	impls := map[string]func() cds.Cache[int, int]{
		"SIEVE":  func() cds.Cache[int, int] { return cache.New[int, int](2, cache.WithShards(1)) },
		"S3FIFO": func() cds.Cache[int, int] { return cache.NewS3FIFO[int, int](2, cache.WithShards(1)) },
		"LRU":    func() cds.Cache[int, int] { return cache.NewLRU[int, int](2, cache.WithShards(1)) },
	}
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			runWindows(t, lincheck.CacheModel(), func() func(int, *xrand.Rand, *lincheck.Recorder) {
				c := mk()
				return func(client int, rng *xrand.Rand, rec *lincheck.Recorder) {
					for i := 0; i < linOpsPerCli; i++ {
						k := rng.Intn(linKeyRange)
						switch rng.Intn(4) {
						case 0:
							p := rec.Begin(client, lincheck.CacheDelete{Key: k})
							p.End(c.Delete(k))
						case 1, 2:
							v := rng.Intn(linValueRange)
							p := rec.Begin(client, lincheck.CacheSet{Key: k, Value: v})
							c.Set(k, v)
							p.End(nil)
						default:
							p := rec.Begin(client, lincheck.CacheGet{Key: k})
							v, ok := c.Get(k)
							p.End(lincheck.ValueOK{Value: v, OK: ok})
						}
					}
				}
			})
		})
	}
}

// TestLinearizableWeightedCaches re-runs the cache windows with the
// capacity bound switched to weights (WithMaxWeight) and random per-entry
// weights, under every policy and with TinyLFU admission layered on top.
// The weighted paths the checker exercises beyond the plain windows: one
// Set may evict several victims (all must linearize as losses that stay
// gone), an entry whose weight exceeds the budget is rejected (legal only
// as Set-then-immediate-loss — a later hit on the *old* value would be a
// stale read the model rejects), and TinyLFU admission rejections
// likewise linearize as instant losses.
func TestLinearizableWeightedCaches(t *testing.T) {
	impls := map[string]func() *cache.Cache[int, int]{
		"SIEVE": func() *cache.Cache[int, int] {
			return cache.New[int, int](8, cache.WithShards(1), cache.WithMaxWeight(4))
		},
		"S3FIFO": func() *cache.Cache[int, int] {
			return cache.New[int, int](8, cache.WithShards(1), cache.WithMaxWeight(4),
				cache.WithPolicy(cache.S3FIFO))
		},
		"LRU": func() *cache.Cache[int, int] {
			return cache.New[int, int](8, cache.WithShards(1), cache.WithMaxWeight(4),
				cache.WithPolicy(cache.LRU))
		},
		"SIEVE+TinyLFU": func() *cache.Cache[int, int] {
			return cache.New[int, int](8, cache.WithShards(1), cache.WithMaxWeight(4),
				cache.WithAdmission(cache.TinyLFU))
		},
	}
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			runWindows(t, lincheck.CacheModel(), func() func(int, *xrand.Rand, *lincheck.Recorder) {
				c := mk()
				return func(client int, rng *xrand.Rand, rec *lincheck.Recorder) {
					for i := 0; i < linOpsPerCli; i++ {
						k := rng.Intn(linKeyRange)
						switch rng.Intn(4) {
						case 0:
							p := rec.Begin(client, lincheck.CacheDelete{Key: k})
							p.End(c.Delete(k))
						case 1, 2:
							v := rng.Intn(linValueRange)
							// Weights 1..3 fit the budget of 4 (a 3 evicts
							// several weight-1 residents); 5 exceeds it and
							// must reject — including removing an existing
							// entry rather than leaving its stale value.
							w := int64(1 + rng.Intn(5))
							if w == 4 {
								w = 5
							}
							p := rec.Begin(client, lincheck.CacheSet{Key: k, Value: v})
							c.SetWeight(k, v, w)
							p.End(nil)
						default:
							p := rec.Begin(client, lincheck.CacheGet{Key: k})
							v, ok := c.Get(k)
							p.End(lincheck.ValueOK{Value: v, OK: ok})
						}
					}
				}
			})
		})
	}
}

// TestLinearizableSTMCounter checks STM atomicity through the counter
// model: racing read-modify-write transactions must never lose an update,
// which is precisely what a torn TL2 commit would produce.
func TestLinearizableSTMCounter(t *testing.T) {
	runWindows(t, lincheck.CounterModel(), func() func(int, *xrand.Rand, *lincheck.Recorder) {
		v := stm.NewTVar(int64(0))
		return func(client int, rng *xrand.Rand, rec *lincheck.Recorder) {
			for i := 0; i < linOpsPerCli; i++ {
				if rng.Intn(2) == 0 {
					d := int64(rng.Intn(3) - 1)
					p := rec.Begin(client, lincheck.CounterAdd{Delta: d})
					stm.Atomically(func(tx *stm.Txn) {
						v.Write(tx, v.Read(tx)+d)
					})
					p.End(nil)
				} else {
					p := rec.Begin(client, lincheck.CounterLoad{})
					p.End(v.Load())
				}
			}
		}
	})
}

// TestLinearizableSTMSnapshot drives two TVars that are always written
// together: transactional reads must observe them equal (the TL2 snapshot
// guarantee). A torn read records the sentinel -1, which the register
// model rejects because -1 is never written.
func TestLinearizableSTMSnapshot(t *testing.T) {
	runWindows(t, lincheck.RegisterModel(), func() func(int, *xrand.Rand, *lincheck.Recorder) {
		a, b := stm.NewTVar(0), stm.NewTVar(0)
		return func(client int, rng *xrand.Rand, rec *lincheck.Recorder) {
			for i := 0; i < linOpsPerCli; i++ {
				if rng.Intn(2) == 0 {
					v := rng.Intn(linValueRange)
					p := rec.Begin(client, lincheck.RegisterWrite{Value: v})
					stm.Atomically(func(tx *stm.Txn) {
						a.Write(tx, v)
						b.Write(tx, v)
					})
					p.End(nil)
				} else {
					p := rec.Begin(client, lincheck.RegisterRead{})
					var x, y int
					stm.Atomically(func(tx *stm.Txn) {
						x, y = a.Read(tx), b.Read(tx)
					})
					out := x
					if x != y {
						out = -1 // torn snapshot: unwritable value fails the check
					}
					p.End(out)
				}
			}
		}
	})
}

// TestCheckerCatchesRealBug feeds the checker a deliberately broken
// "stack" (a queue pretending to be a stack) and requires a rejection —
// guarding against the checker silently accepting everything.
func TestCheckerCatchesRealBug(t *testing.T) {
	built, _ := catalog.Find("queue", "Mutex").New(catalog.Options{})
	q := built.(cds.Queue[int]) // FIFO masquerading as a stack
	rec := lincheck.NewRecorder(1)
	push := func(v int) {
		p := rec.Begin(0, lincheck.StackPush{Value: v})
		q.Enqueue(v)
		p.End(nil)
	}
	pop := func() {
		p := rec.Begin(0, lincheck.StackPop{})
		v, ok := q.TryDequeue()
		p.End(lincheck.ValueOK{Value: v, OK: ok})
	}
	push(1)
	push(2)
	pop() // returns 1; a stack must return 2
	pop()
	if res := lincheck.Check(lincheck.StackModel(), rec.History()); res.Ok {
		t.Fatal("checker accepted FIFO behaviour as a stack")
	} else if res.Info == "" {
		t.Fatal("rejection carried no diagnostic")
	}
}

// Dual (blocking) structures: every blocking operation carries a timeout
// so a bug can wedge an operation without wedging the suite. A timed-out
// Take linearizes as a failed TryDequeue — the reservation it withdrew
// was installed at an instant the queue held no data — so the plain
// QueueModel applies. Client 0 is a dedicated producer with as many
// enqueues as the other clients have takes, so every take that does not
// time out can be fed.
func TestLinearizableDualQueues(t *testing.T) {
	impls := map[string]func() cds.BlockingQueue[int]{
		"DualMS": func() cds.BlockingQueue[int] { return dual.NewMSQueue[int]() },
		"DualMS+EBR": func() cds.BlockingQueue[int] {
			return dual.NewMSQueue[int](dual.WithReclaim(ebrAggressive()))
		},
		"DualMS+HP": func() cds.BlockingQueue[int] {
			return dual.NewMSQueue[int](dual.WithReclaim(hpAggressive()))
		},
	}
	const takeTimeout = 20 * time.Millisecond
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			runWindows(t, lincheck.QueueModel(), func() func(int, *xrand.Rand, *lincheck.Recorder) {
				q := mk()
				return func(client int, rng *xrand.Rand, rec *lincheck.Recorder) {
					for i := 0; i < linOpsPerCli; i++ {
						if client == 0 {
							v := rng.Intn(linValueRange)
							p := rec.Begin(client, lincheck.QueueEnqueue{Value: v})
							if err := q.Put(context.Background(), v); err != nil {
								t.Errorf("Put: %v", err)
							}
							p.End(nil)
							continue
						}
						if rng.Intn(2) == 0 {
							ctx, cancel := context.WithTimeout(context.Background(), takeTimeout)
							p := rec.Begin(client, lincheck.QueueDequeue{})
							v, err := q.Take(ctx)
							p.End(lincheck.ValueOK{Value: v, OK: err == nil})
							cancel()
						} else {
							p := rec.Begin(client, lincheck.QueueDequeue{})
							v, ok := q.(*dual.MSQueue[int]).TryDequeue()
							p.End(lincheck.ValueOK{Value: v, OK: ok})
						}
					}
				}
			})
		})
	}
}

// The synchronous queue: every client mixes puts and takes under short
// timeouts; whichever halves pair up must pair consistently (no
// manufactured or duplicated values), which SyncQueueModel enforces.
func TestLinearizableSyncQueue(t *testing.T) {
	impls := map[string]func() cds.BlockingQueue[int]{
		// A narrow, short-spin handoff array forces traffic onto both the
		// fast path and the parked slow path inside the tiny windows.
		"Sync": func() cds.BlockingQueue[int] { return dual.NewSync[int](2, 16) },
		"Sync+EBR": func() cds.BlockingQueue[int] {
			return dual.NewSync[int](2, 16, dual.WithReclaim(ebrAggressive()))
		},
		"Sync+HP": func() cds.BlockingQueue[int] {
			return dual.NewSync[int](2, 16, dual.WithReclaim(hpAggressive()))
		},
	}
	const rvTimeout = 20 * time.Millisecond
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			runWindows(t, lincheck.SyncQueueModel(), func() func(int, *xrand.Rand, *lincheck.Recorder) {
				s := mk()
				return func(client int, rng *xrand.Rand, rec *lincheck.Recorder) {
					for i := 0; i < linOpsPerCli; i++ {
						ctx, cancel := context.WithTimeout(context.Background(), rvTimeout)
						if (client+i)%2 == 0 {
							v := rng.Intn(linValueRange)
							p := rec.Begin(client, lincheck.SyncPut{Value: v})
							err := s.Put(ctx, v)
							p.End(err == nil)
						} else {
							p := rec.Begin(client, lincheck.SyncTake{})
							v, err := s.Take(ctx)
							p.End(lincheck.ValueOK{Value: v, OK: err == nil})
						}
						cancel()
					}
				}
			})
		})
	}
}

// TestPoolTaskConservation records real executor histories against the
// task-bag model: PoolSubmit windows from producer goroutines, PoolExec
// windows bracketing each handler invocation on the pool's own workers.
// Half the rounds race a drain-Shutdown against the producers, so the
// histories include rejected submissions — the model proves every
// accepted task ran exactly once, no rejected task ran, and nothing ran
// before its submission.
func TestPoolTaskConservation(t *testing.T) {
	testprocs.AtLeast(t, 4) // genuinely interleaved histories on any box
	const (
		rounds       = 30
		submitters   = 2
		perSubmitter = 4
		workers      = 2
	)
	for round := 0; round < rounds; round++ {
		rec := lincheck.NewRecorder(submitters + workers)
		p := pool.NewWorkStealing(func(w *pool.Worker[int], id int) {
			// Each worker goroutine is its own recorder client; the
			// window is the handler invocation itself.
			rec.Begin(submitters+w.ID(), lincheck.PoolExec{ID: id}).End(nil)
		}, pool.WithWorkers(workers))

		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					id := s*perSubmitter + i
					pd := rec.Begin(s, lincheck.PoolSubmit{ID: id})
					ok := p.Submit(id)
					pd.End(ok)
				}
			}(s)
		}
		if round%2 == 1 {
			// Race the drain against the producers: later submissions
			// are rejected and must never execute.
			runtime.Gosched()
		} else {
			wg.Wait()
		}
		if err := p.Shutdown(context.Background()); err != nil {
			t.Fatalf("round %d: Shutdown: %v", round, err)
		}
		wg.Wait()
		if res := lincheck.Check(lincheck.PoolModel(), rec.History()); !res.Ok {
			t.Fatalf("round %d: %s", round, res.Info)
		}
	}
}
