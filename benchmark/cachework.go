package main

import (
	"context"
	"time"

	"github.com/cds-suite/cds/cache"
)

// Ops travel in the input streams as opcode<<opShift | key.
const (
	opShift = 24
	keyMask = 1<<opShift - 1
)

const (
	opGet uint32 = iota
	opSet
	opDelete
	opGetOrLoad
)

// tracedLoader is a GetOrLoad loader that belongs to one goroutine and
// notes when it ran, so the caller can record it as a child span — and
// tell a miss from a hit — without anything inside package cache.
type tracedLoader struct {
	fn         func(context.Context, uint64) (uint64, error)
	timed      bool
	start, end int64
	sink       uint64
}

func newTracedLoader() *tracedLoader {
	l := &tracedLoader{}
	l.fn = func(_ context.Context, k uint64) (uint64, error) {
		if !l.timed {
			return slowValue(k, &l.sink), nil
		}
		l.start = now()
		v := slowValue(k, &l.sink)
		l.end = now()
		return v, nil
	}
	return l
}

// getOrLoad calls c.GetOrLoad(k) and checks the value. With sb set it
// records the call as a child of parent, and the loader, if it ran, as
// a child of the call.
func (l *tracedLoader) getOrLoad(c *cache.Cache[uint64, uint64], k uint64, sb *spanBuf, parent, req uint32) bool {
	if sb == nil {
		v, err := c.GetOrLoad(context.Background(), k, l.fn)
		return err == nil && v == valueOf(k)
	}
	l.timed, l.end = true, 0
	s := now()
	v, err := c.GetOrLoad(context.Background(), k, l.fn)
	id := sb.add(spGetOrLoad, parent, req, s, now())
	if l.end != 0 {
		sb.add(spLoader, id, req, l.start, l.end)
	}
	l.timed = false
	return err == nil && v == valueOf(k)
}

// cacheInst is cache_hit or cache_churn: G goroutines on one cache.
type cacheInst struct {
	c       *cache.Cache[uint64, uint64]
	base    cache.Stats // after the pre-fill
	workers []*worker
}

// cacheSpec is what differs between the two cache workloads.
type cacheSpec struct {
	name                string
	capacity            int
	keys                uint64
	theta               float64
	get, getOrLoad, set float64 // op shares; the rest is Delete
	prefill             uint64  // hottest ranks resident at the start
}

var (
	cacheHitSpec   = cacheSpec{name: "cache_hit", capacity: 1 << 16, keys: 1 << 16, theta: 0.99, get: 0.95, set: 0.05, prefill: 1 << 16}
	cacheChurnSpec = cacheSpec{name: "cache_churn", capacity: 1 << 14, keys: 1 << 18, theta: 0.8, getOrLoad: 0.80, set: 0.10, prefill: 1 << 14}
)

// build makes the cache (the twin without the admission filter),
// pre-fills it hottest key first and generates every goroutine's
// stream.
func (s *cacheSpec) build(cfg *config, trial int, twin bool) instance {
	adm := cache.TinyLFU
	if twin {
		adm = cache.AdmitAll
	}
	in := &cacheInst{c: cache.New[uint64, uint64](s.capacity, cache.WithAdmission(adm))}
	z := newZipf(s.keys, s.theta)
	prefillCache(in.c, z, s.prefill, cfg.corrupt)
	in.base = in.c.Stats()
	for g := 0; g < cfg.g; g++ {
		rng := streamSeed(cfg.seed, s.name, trial, g)
		in.workers = append(in.workers, &worker{stream: s.stream(z, &rng, cfg.streamLen), rng: rng})
	}
	return in
}

// prefillCache makes the n hottest keys resident, hottest first, and
// reads each one once, as a cache that has been serving would have:
// the read sets the policy's visited bit and feeds the admission
// sketch, so that the keys which overflow a shard late in the pre-fill
// bounce off instead of evicting the hottest keys, which are the oldest.
func prefillCache(c *cache.Cache[uint64, uint64], z *zipf, n uint64, corrupt bool) {
	for r := uint64(0); r < n; r++ {
		k := z.keyOfRank(r)
		v := valueOf(k)
		if corrupt {
			v++
		}
		c.Set(k, v)
		c.Get(k)
	}
}

func (s *cacheSpec) stream(z *zipf, rng *splitmix, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		u := rng.float()
		op := opDelete
		switch {
		case u < s.get:
			op = opGet
		case u < s.get+s.getOrLoad:
			op = opGetOrLoad
		case u < s.get+s.getOrLoad+s.set:
			op = opSet
		}
		out[i] = op<<opShift | uint32(z.key(rng))
	}
	return out
}

func (in *cacheInst) run(dur time.Duration, tr *tracer) runCounts {
	return runWorkers(in.workers, dur, tr, func(int) stepFunc { return in.stepFor(newTracedLoader()) })
}

// stepFor returns one goroutine's op function; the loader is that
// goroutine's own.
func (in *cacheInst) stepFor(loader *tracedLoader) stepFunc {
	c := in.c
	return func(w *worker, op uint32, sb *spanBuf, root uint32) {
		k := uint64(op & keyMask)
		switch op >> opShift {
		case opGet:
			s := sb.begin()
			v, ok := c.Get(k)
			sb.finish(spCacheGet, root, root, s)
			if ok && v != valueOf(k) {
				w.failed++
			}
		case opGetOrLoad:
			if !loader.getOrLoad(c, k, sb, root, root) {
				w.failed++
			}
		case opSet:
			s := sb.begin()
			c.Set(k, valueOf(k))
			sb.finish(spCacheSet, root, root, s)
		default:
			s := sb.begin()
			c.Delete(k)
			sb.finish(spCacheDelete, root, root, s)
		}
	}
}

func (in *cacheInst) release() {
	for _, w := range in.workers {
		w.stream = nil
	}
}

func (in *cacheInst) layers(ops uint64, m map[string]float64) {
	cacheLayers(in.c.Stats(), in.base, ops, m)
}

func (in *cacheInst) close() { in.c.Close() }

// cacheLayers turns the change in a cache's Stats() over a trial into
// the cache.* count metrics.
func cacheLayers(st, base cache.Stats, ops uint64, m map[string]float64) {
	lookups := float64(st.Lookups() - base.Lookups())
	m["cache.hit_ratio"] = ratio(float64(st.Hits-base.Hits), lookups)
	m["cache.loads_per_op"] = ratio(float64(st.Loads-base.Loads), float64(ops))
	m["cache.stampede_suppressed_per_op"] = ratio(float64(st.StampedeSuppressed-base.StampedeSuppressed), float64(ops))
	m["cache.evictions_per_op"] = ratio(float64(st.Evictions-base.Evictions), float64(ops))
	m["cache.admission_reject_ratio"] = ratio(float64(st.AdmissionRejects-base.AdmissionRejects), float64(st.EvictConsidered-base.EvictConsidered))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
