package bench

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/pool"
	"github.com/cds-suite/cds/queue"
)

// The pool scenario family (experiment S16) measures task executors as
// systems: each cell runs a complete workload — a task graph produced
// externally and/or forked from inside tasks — to completion on `threads`
// workers and reports completed tasks per second, the methodology of F9
// scaled up from a bare deque to the full executor. pool.WorkStealing is
// compared against the two designs it displaces: the same workload on one
// shared coarse-locked queue (every pop contends on one lock) and on a
// buffered Go channel (the runtime's own MPMC handoff). The WorkStealing
// records carry the executor's scheduling gauges — steals, local_hits,
// inject_hits, parks, executed — which is how to read *why* a cell wins:
// a high local-hit rate is the fork/join fast path the shared designs
// cannot have, and steals quantify how much rebalancing paid for it.
// Latency percentiles on S16 records are task sojourn times (accepted →
// run), i.e. scheduling delay, sampled per task on every backend.

// poolTask is one unit of work in the S16 workloads.
type poolTask struct {
	depth int    // remaining fork depth (fork-join tree)
	fan   int    // children to spawn (skewed fan-out)
	spins int    // leaf computation length
	seed  uint64 // per-task PRNG stream
	// born is stamped by the executor wrappers at submit/spawn time; the
	// cell's latency percentiles are task sojourn times (accepted → run),
	// i.e. scheduling delay — the executor-level analogue of the
	// per-operation latency the other scenario families sample.
	born time.Time
}

// poolLeafSpins is the default leaf computation: ~64 SplitMix64 rounds,
// roughly 300ns — the fine-grained task regime work stealing targets.
const poolLeafSpins = 64

func poolLeafWork(t poolTask) uint64 {
	v := t.seed
	for i := 0; i < t.spins; i++ {
		xrand.SplitMix64(&v)
	}
	return v
}

// poolWorkload is one S16 workload, abstracted over the executor: produce
// drives external submissions (the injection path) and handle runs a task,
// forking children through spawn (the executor-specific fast path).
type poolWorkload struct {
	produce func(submit func(poolTask))
	handle  func(spawn func(poolTask), t poolTask)
	// maxTasks bounds the total task count; it sizes the channel
	// baseline's buffer so spawning can never deadlock against full
	// workers.
	maxTasks int
}

// runPoolWS measures a workload on pool.WorkStealing with th workers,
// using Shutdown's drain as the join, and attaches the scheduling gauges.
func runPoolWS(th int, wl poolWorkload) Result {
	// Each slot is written and read only by its own worker goroutine; the
	// caches avoid re-evaluating closures on every task. Executed tasks
	// are counted by the pool's own per-worker counters, so the measured
	// loop adds no shared bookkeeping of its own.
	spawns := make([]func(poolTask), th)
	hists := newHists(th)
	p := pool.NewWorkStealing(func(w *pool.Worker[poolTask], t poolTask) {
		hists[w.ID()].Record(time.Since(t.born).Nanoseconds())
		spawn := spawns[w.ID()]
		if spawn == nil {
			ws := w // dedicated binding so the method value is built once
			spawn = func(c poolTask) {
				c.born = time.Now()
				ws.Spawn(c)
			}
			spawns[w.ID()] = spawn
		}
		wl.handle(spawn, t)
	}, pool.WithWorkers(th))
	t0 := time.Now()
	wl.produce(func(t poolTask) {
		t.born = time.Now()
		p.Submit(t)
	})
	_ = p.Shutdown(context.Background())
	elapsed := time.Since(t0)
	st := p.Stats()
	return Result{
		Workers: th,
		Ops:     int64(st.Executed()),
		Elapsed: elapsed,
		Latency: mergeHists(hists),
		Gauges: map[string]float64{
			"steals":      float64(st.Steals),
			"local_hits":  float64(st.LocalHits),
			"inject_hits": float64(st.InjectHits),
			"parks":       float64(st.Parks),
			"executed":    float64(st.Executed()),
		},
	}
}

// stamped wraps a submit/spawn function with the sojourn birth stamp.
func stamped(f func(poolTask)) func(poolTask) {
	return func(t poolTask) {
		t.born = time.Now()
		f(t)
	}
}

// runPoolPolled measures the same workload on one shared queue that th
// workers poll through pop — no locality, every task through one structure.
// It is the body of both baselines: the coarse-locked queue (every pop
// through one lock) and the buffered channel.
func runPoolPolled(th int, wl poolWorkload, push func(poolTask), pop func() (poolTask, bool)) Result {
	var pending, executed atomic.Int64
	var prodDone atomic.Bool
	submit := stamped(func(t poolTask) {
		pending.Add(1)
		push(t)
	})
	hists := newHists(th)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < th; w++ {
		wg.Add(1)
		go func(h *Histogram) {
			defer wg.Done()
			ran := int64(0) // worker-local; folded in once at exit
			defer func() { executed.Add(ran) }()
			for {
				t, ok := pop()
				if !ok {
					if prodDone.Load() && pending.Load() == 0 {
						return
					}
					runtime.Gosched()
					continue
				}
				h.Record(time.Since(t.born).Nanoseconds())
				wl.handle(submit, t)
				ran++
				pending.Add(-1)
			}
		}(hists[w])
	}
	wl.produce(submit)
	prodDone.Store(true)
	wg.Wait()
	return Result{Workers: th, Ops: executed.Load(), Elapsed: time.Since(t0), Latency: mergeHists(hists)}
}

// poolAlgos is the S16 implementation sweep.
func poolAlgos(mkWorkload func(cfg Config) poolWorkload) []ScenarioAlgo {
	return []ScenarioAlgo{
		{Label: "WorkStealing", Run: func(cfg Config, th int) Result {
			return runPoolWS(th, mkWorkload(cfg))
		}},
		{Label: "SharedQueue", Run: func(cfg Config, th int) Result {
			q := queue.NewMutex[poolTask]()
			return runPoolPolled(th, mkWorkload(cfg), q.Enqueue, q.TryDequeue)
		}},
		// The idiomatic Go worker-pool baseline: a buffered channel sized to
		// the workload's task bound, so in-task spawns can never deadlock.
		{Label: "Channel", Run: func(cfg Config, th int) Result {
			wl := mkWorkload(cfg)
			ch := make(chan poolTask, wl.maxTasks)
			return runPoolPolled(th, wl, func(t poolTask) { ch <- t }, func() (t poolTask, ok bool) {
				select {
				case t = <-ch:
					return t, true
				default:
					return t, false
				}
			})
		}},
	}
}

// forkJoinWorkload builds a binary fork-join tree sized to the op budget:
// one submitted root forks down to ~ops leaves of ~300ns each — parallel
// divide-and-conquer, the canonical work-stealing workload.
func forkJoinWorkload(cfg Config) poolWorkload {
	ops := cfg.ops(1 << 17)
	depth := bits.Len(uint(ops)) - 1
	if depth < 4 {
		depth = 4
	}
	if depth > 20 {
		depth = 20
	}
	total := 1<<(depth+1) - 1
	return poolWorkload{
		maxTasks: total,
		produce: func(submit func(poolTask)) {
			submit(poolTask{depth: depth, spins: poolLeafSpins, seed: 42})
		},
		handle: func(spawn func(poolTask), t poolTask) {
			if t.depth == 0 {
				poolLeafWork(t)
				return
			}
			spawn(poolTask{depth: t.depth - 1, spins: t.spins, seed: t.seed * 2})
			spawn(poolTask{depth: t.depth - 1, spins: t.spins, seed: t.seed*2 + 1})
		},
	}
}

// fanOutWorkload is pure injection-lane pressure: one external producer
// submits leaf tasks in bursts of 64 with yields between bursts, so the
// consumers oscillate between draining a burst and going idle — the
// regime that exercises the spin-then-park path (watch the parks gauge).
func fanOutWorkload(cfg Config) poolWorkload {
	ops := cfg.ops(1 << 17)
	const burst = 64
	return poolWorkload{
		maxTasks: ops + burst,
		produce: func(submit func(poolTask)) {
			for i := 0; i < ops; i++ {
				submit(poolTask{spins: poolLeafSpins, seed: uint64(i)})
				if i%burst == burst-1 {
					runtime.Gosched() // drought between bursts
				}
			}
		},
		handle: func(_ func(poolTask), t poolTask) {
			poolLeafWork(t)
		},
	}
}

// zipfFanWorkload is the skewed-producer cell: submitted batch tasks fan
// out into a Zipf-skewed number of children (most batches tiny, a few
// huge), so the worker that picks up a hot batch builds a deep local
// deque the others must steal from — imbalance by construction, which is
// the case for stealing over a shared queue's implicit rebalancing.
func zipfFanWorkload(cfg Config) poolWorkload {
	ops := cfg.ops(1 << 17)
	const maxFan = 128
	batches := ops / 16
	if batches < 1 {
		batches = 1
	}
	return poolWorkload{
		maxTasks: batches * (maxFan + 1),
		produce: func(submit func(poolTask)) {
			fans, err := NewKeyStream(maxFan, 0.99, 7)
			if err != nil {
				panic(err) // static parameters; cannot fail at runtime
			}
			for i := 0; i < batches; i++ {
				submit(poolTask{fan: int(fans.Next()) + 1, spins: poolLeafSpins, seed: uint64(i)})
			}
		},
		handle: func(spawn func(poolTask), t poolTask) {
			if t.fan == 0 {
				poolLeafWork(t)
				return
			}
			for c := 0; c < t.fan; c++ {
				spawn(poolTask{spins: t.spins, seed: t.seed<<8 + uint64(c)})
			}
		},
	}
}

// poolScenarios is experiment S16: the work-stealing executor as a system
// against the shared-queue and channel baselines.
func poolScenarios() []Scenario {
	return []Scenario{
		{Family: "pool", Name: "fork-join-tree", Algos: poolAlgos(forkJoinWorkload)},
		{Family: "pool", Name: "fan-out-burst-64", Algos: poolAlgos(fanOutWorkload)},
		{Family: "pool", Name: "zipf-fan-producers-0.99", Algos: poolAlgos(zipfFanWorkload)},
	}
}
