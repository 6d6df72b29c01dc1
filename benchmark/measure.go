package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config is everything one run depends on. The command line sets seed
// and the trial length; the tests shrink the rest.
type config struct {
	seed      uint64
	g         int           // client goroutines, and GOMAXPROCS
	trials    int           // timed trials of an untraced run
	trialDur  time.Duration // length of each trial, traced or not
	warmDur   time.Duration // untimed trial that runs first
	streamLen int           // inputs per goroutine, a power of two; trials cycle through them
	probeDur  time.Duration // length of the host-stall probe
	corrupt   bool          // tests only: the cache workloads pre-fill wrong values
}

// An instance is one freshly built copy of a workload: its structures,
// pre-filled, and its input streams. Building it is the set-up that
// setup_s times.
type instance interface {
	// run drives the closed loop for dur and returns what the
	// goroutines counted, after checking what can only be checked at
	// the end (conservation, drained structures).
	run(dur time.Duration, tr *tracer) runCounts
	// release drops the inputs, so that only the structures are
	// reachable when the live heap is measured.
	release()
	// layers adds the per-layer metrics that come from the
	// structures' public Stats() to m.
	layers(ops uint64, m map[string]float64)
	// close stops the goroutines the instance owns.
	close()
}

type runCounts struct {
	ops, failed uint64
	wall        time.Duration
	hist        *histogram
}

// trialResult is one trial as measured from outside the structures.
type trialResult struct {
	runCounts
	setup     time.Duration
	cpuNs     int64
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPauseNs uint64
	gcCPUFrac float64
	liveHeap  uint64
	layers    map[string]float64
	spans     []span
}

func (t *trialResult) throughput() float64 { return float64(t.ops) / t.wall.Seconds() }

var epoch = time.Now()

// now reads the monotonic clock, in ns since the process started.
func now() int64 { return int64(time.Since(epoch)) }

func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runTrial builds an instance, runs it for dur and measures the process
// around the run. twin selects the workload's comparison build; traced
// records spans.
func runTrial(w *workload, cfg *config, trial int, dur time.Duration, twin, traced bool) *trialResult {
	res := &trialResult{layers: make(map[string]float64)}

	t0 := time.Now()
	inst := w.build(cfg, trial, twin)
	res.setup = time.Since(t0)

	var tr *tracer
	if traced {
		tr = newTracer(w.tracedGoroutines(cfg.g))
	}
	runtime.GC() // every trial starts from a collected heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0 := gcCPUSeconds()
	cpu0 := cpuTime()

	res.runCounts = inst.run(dur, tr)

	res.cpuNs = cpuTime() - cpu0
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.bytes = after.TotalAlloc - before.TotalAlloc
	res.gcCycles = after.NumGC - before.NumGC
	res.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	if res.cpuNs > 0 {
		res.gcCPUFrac = (gc1 - gc0) * 1e9 / float64(res.cpuNs)
	}

	inst.release()
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.liveHeap = after.HeapAlloc
	inst.layers(res.ops, res.layers)
	inst.close()
	runtime.KeepAlive(inst)

	if tr != nil {
		res.spans = tr.all()
		fixWaits(res.spans)
	}
	return res
}

// The sampled op of each block of sampleBlock is timed. Its position in
// the block comes from the goroutine's PRNG, because a fixed stride can
// fall in step with a periodic op mix and time one kind of op only.
const sampleBlock = 64

// A worker is one closed-loop client goroutine of the cache and index
// workloads. It owns its inputs, its counters and its histogram, so the
// loop shares nothing but the structure under test.
type worker struct {
	stream []uint32
	rng    splitmix
	sb     *spanBuf
	ops    uint64
	failed uint64
	hist   histogram
	_      [64]byte
}

// A stepFunc performs one op. sb is nil unless this op is traced, and
// root is then the id of the op's root span.
type stepFunc func(w *worker, op uint32, sb *spanBuf, root uint32)

func (w *worker) loop(deadline int64, step stepFunc) {
	mask := len(w.stream) - 1
	pos := 0
	for {
		sampled := int(w.rng.next() % sampleBlock)
		for i := 0; i < sampleBlock; i++ {
			op := w.stream[pos&mask]
			pos++
			if i != sampled {
				step(w, op, nil, 0)
				continue
			}
			var sb *spanBuf
			var root uint32
			if w.sb != nil && w.sb.room() {
				sb = w.sb
				root = sb.nextID()
			}
			t0 := now()
			if sb != nil {
				sb.add(spOp, 0, root, t0, t0)
			}
			step(w, op, sb, root)
			t1 := now()
			sb.setEnd(root, t1)
			w.hist.add(t1 - t0)
			if t1 >= deadline {
				w.ops = uint64(pos)
				return
			}
		}
	}
}

// runWorkers starts one goroutine per worker, each with its own op
// function, releases them together and waits for all of them. No goroutine sleeps or polls the clock
// between ops; each reads it once per block, at its sampled op.
func runWorkers(workers []*worker, dur time.Duration, tr *tracer, stepFor func(i int) stepFunc) runCounts {
	var wg sync.WaitGroup
	start := make(chan int64)
	for i, w := range workers {
		w.sb = tr.buf(i)
		step := stepFor(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(<-start+int64(dur), step)
		}()
	}
	t0 := now()
	for range workers {
		start <- t0
	}
	wg.Wait()
	rc := runCounts{wall: time.Duration(now() - t0), hist: new(histogram)}
	for _, w := range workers {
		rc.ops += w.ops
		rc.failed += w.failed
		rc.hist.merge(&w.hist)
	}
	return rc
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
