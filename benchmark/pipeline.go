package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cds-suite/cds/cache"
	"github.com/cds-suite/cds/counter"
	"github.com/cds-suite/cds/dual"
	"github.com/cds-suite/cds/pool"
)

const (
	pipelineIngress  = 1024
	pipelineCacheCap = 1 << 14
	pipelineKeys     = 1 << 16
	pipelineTheta    = 0.99
	tasksPerRequest  = 3
	traceOneIn       = 16 // pipeline requests traced on a traced trial
)

// req is one request: three cache lookups, one per task.
type req struct {
	keys    [tasksPerRequest]uint32
	id      uint32
	root    uint32 // root span id; 0 when the request is not traced
	t0      int64  // before the credit Take (traced requests only)
	start   int64  // credit taken
	pending atomic.Int32
}

type task struct {
	r   *req
	idx int
}

// pipelineInst is the composed service: client → credits (dual.Bounded)
// → ingress (dual.Bounded) → dispatcher → pool.WorkStealing → cache →
// counter. window is the number of credits, i.e. of requests in flight.
type pipelineInst struct {
	window  int
	keys    []uint32
	credits *dual.Bounded[struct{}]
	ingress *dual.Bounded[*req]
	pool    *pool.WorkStealing[task]
	cache   *cache.Cache[uint64, uint64]
	base    cache.Stats
	served  *counter.Sharded
	perW    []pipelineWorker
	trace   *tracer // set by run, read by the handler

	startedAt int64
}

// pipelineWorker is what one pool worker owns: its loader, its
// histogram and its counts.
type pipelineWorker struct {
	loader    *tracedLoader
	hist      histogram
	completed uint64
	failed    uint64
	_         [64]byte
}

func buildPipeline(name string, window int) func(cfg *config, trial int, twin bool) instance {
	return func(cfg *config, trial int, _ bool) instance {
		in := &pipelineInst{window: window}
		in.credits = dual.NewBounded[struct{}](window)
		for i := 0; i < window; i++ {
			in.credits.TryEnqueue(struct{}{})
		}
		in.ingress = dual.NewBounded[*req](pipelineIngress)
		in.cache = cache.New[uint64, uint64](pipelineCacheCap)
		z := newZipf(pipelineKeys, pipelineTheta)
		prefillCache(in.cache, z, pipelineCacheCap, false)
		in.base = in.cache.Stats()
		in.served = counter.NewSharded(0)
		workers := max(1, cfg.g-1)
		in.perW = make([]pipelineWorker, workers)
		for i := range in.perW {
			in.perW[i].loader = newTracedLoader()
		}
		in.pool = pool.NewWorkStealing(in.handle, pool.WithWorkers(workers))
		rng := streamSeed(cfg.seed, name, trial, 0)
		in.keys = pipelineStream(z, &rng, cfg.streamLen)
		return in
	}
}

// pipelineStream draws the keys requests look up, three to a request.
func pipelineStream(z *zipf, rng *splitmix, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(z.key(rng))
	}
	return out
}

// Span buffers of a pipeline trial: the client's, the dispatcher's,
// then one per pool worker.
const (
	bufClient = iota
	bufDispatcher
	bufWorker0
)

// handle runs one task. Task 0 forks the other two onto the worker's
// own deque; whichever task finishes last completes the request.
func (in *pipelineInst) handle(w *pool.Worker[task], t task) {
	pw := &in.perW[w.ID()]
	r := t.r
	var sb *spanBuf
	if r.root != 0 {
		sb = in.trace.buf(bufWorker0 + w.ID())
	}
	if t.idx == 0 {
		if sb != nil {
			entered := now()
			sb.add(spSchedWait, r.root, r.id, entered, entered) // fixWaits sets the start
		}
		for i := 1; i < tasksPerRequest; i++ {
			s := sb.begin()
			w.Spawn(task{r, i})
			sb.finish(spSpawn, r.root, r.id, s)
		}
	}
	if !pw.loader.getOrLoad(in.cache, uint64(r.keys[t.idx]), sb, r.root, r.id) {
		pw.failed++
	}
	s := sb.begin()
	in.served.Add(1)
	sb.finish(spCounterAdd, r.root, r.id, s)
	if r.pending.Add(-1) != 0 {
		return
	}
	done := now()
	pw.hist.add(done - r.start)
	pw.completed++
	if !in.credits.TryEnqueue(struct{}{}) {
		pw.failed++ // cannot be full: this request holds the credit
	}
	if sb != nil {
		end := now()
		sb.add(spTryEnqueueCredit, r.root, r.id, done, end)
		sb.addRoot(r.root, r.id, r.t0, end)
	}
}

func (in *pipelineInst) run(dur time.Duration, tr *tracer) runCounts {
	in.trace = tr
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		in.dispatch(ctx, tr.buf(bufDispatcher))
	}()

	sent, failed := in.client(ctx, dur, tr)

	// Taking every credit back waits for the requests in flight.
	for i := 0; i < in.window; i++ {
		if _, err := in.credits.Take(ctx); err != nil {
			failed++
		}
	}
	end := now()
	if err := in.ingress.Put(ctx, nil); err != nil { // stops the dispatcher
		failed++
	}
	wg.Wait()

	rc := runCounts{ops: sent, failed: failed, wall: time.Duration(end - in.startedAt), hist: new(histogram)}
	var completed uint64
	for i := range in.perW {
		pw := &in.perW[i]
		completed += pw.completed
		rc.failed += pw.failed
		rc.hist.merge(&pw.hist)
	}
	// Every request sent was completed, and every task was counted.
	rc.failed += absDiff(sent, completed)
	rc.failed += absDiff(uint64(in.served.Load()), tasksPerRequest*completed)
	return rc
}

// client is the closed loop: it sends a request whenever it holds a
// credit, for dur, and returns how many it sent.
func (in *pipelineInst) client(ctx context.Context, dur time.Duration, tr *tracer) (sent, failed uint64) {
	sb := tr.buf(bufClient)
	pick := splitmix(len(in.keys)) // which request of each block of traceOneIn is traced
	var tracedSlot uint32
	mask := len(in.keys) - 1
	pos := 0
	in.startedAt = now()
	deadline := in.startedAt + int64(dur)
	for id := uint32(1); ; id++ {
		if id%traceOneIn == 1 {
			tracedSlot = uint32(pick.next() % traceOneIn)
		}
		r := &req{id: id}
		for i := range r.keys {
			r.keys[i] = in.keys[pos&mask]
			pos++
		}
		r.pending.Store(tasksPerRequest)
		if sb != nil && id%traceOneIn == tracedSlot && sb.room() {
			r.root = rootSpan | id
			r.t0 = now()
		}
		if _, err := in.credits.Take(ctx); err != nil {
			failed++
		}
		r.start = now()
		if r.start >= deadline {
			in.credits.TryEnqueue(struct{}{})
			return sent, failed
		}
		if err := in.ingress.Put(ctx, r); err != nil {
			failed++
		}
		sent++
		if r.root != 0 {
			sb.add(spTakeCredit, r.root, id, r.t0, r.start)
			sb.add(spPut, r.root, id, r.start, now())
		}
	}
}

// dispatch is the serial stage between the ingress queue and the pool.
// A nil request stops it.
func (in *pipelineInst) dispatch(ctx context.Context, sb *spanBuf) {
	for {
		r, err := in.ingress.Take(ctx)
		if err != nil || r == nil {
			return
		}
		if r.root == 0 {
			in.pool.Submit(task{r, 0})
			continue
		}
		took := now()
		sb.add(spQueueWait, r.root, r.id, took, took) // fixWaits sets the start
		in.pool.Submit(task{r, 0})
		sb.add(spSubmit, r.root, r.id, took, now())
	}
}

func (in *pipelineInst) release() { in.keys = nil }

func (in *pipelineInst) layers(ops uint64, m map[string]float64) {
	cacheLayers(in.cache.Stats(), in.base, ops, m)
	var ds dual.Stats
	for _, s := range []dual.Stats{in.credits.Stats(), in.ingress.Stats()} {
		ds.Parks += s.Parks
		ds.Reservations += s.Reservations
	}
	m["dual.parks_per_op"] = ratio(float64(ds.Parks), float64(ops))
	m["dual.reservations_per_op"] = ratio(float64(ds.Reservations), float64(ops))
	ps := in.pool.Stats()
	executed := float64(ps.Executed())
	m["pool.parks_per_op"] = ratio(float64(ps.Parks), float64(ops))
	m["pool.local_hit_ratio"] = ratio(float64(ps.LocalHits), executed)
	m["pool.inject_ratio"] = ratio(float64(ps.InjectHits), executed)
	m["pool.steal_ratio"] = ratio(float64(ps.Steals), executed)
}

func (in *pipelineInst) close() {
	// Nothing is in flight, so the drain is immediate; Shutdown fails
	// only when its context ends.
	_ = in.pool.Shutdown(context.Background())
	in.cache.Close()
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
