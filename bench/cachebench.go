package bench

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cds-suite/cds/cache"
	"github.com/cds-suite/cds/internal/xrand"
)

// The cache scenario family (experiment S17) measures the bounded cache as
// a system: Zipf(0.99)-skewed lookups with a write fraction, over a key
// space several times the cache's capacity so eviction runs continuously.
// The scan-resistant policies (SIEVE, S3-FIFO — hits recorded under the
// shard read lock) are compared against the two designs they displace: a
// single-lock LRU (every hit takes the exclusive lock to move a list node,
// so reads serialise) and a sync.Map with TTL entries (reads scale but
// nothing bounds the footprint — it never evicts). Every record carries
// the accounting gauges: hits + misses == lookups holds for every cell by
// construction (the harness counts them per worker), hit_rate is the
// quality axis to read alongside the throughput axis, and evictions /
// expired / loads / stampede_suppressed expose what the cache did
// internally to sustain it. The stampede cell drives GetOrLoad on cold
// keys from all workers at once: singleflight keeps origin loads at ≈ one
// per distinct key and counts every suppressed duplicate, while the
// sync.Map baseline's naive get-then-load pays one origin call per racing
// worker.

const (
	cacheCap      = 4096
	cacheKeySpace = 8 * cacheCap // capacity misses guaranteed
	cacheTTL      = time.Minute  // expiry code paths armed, nothing expires mid-cell
)

// cacheBackend abstracts one S17 implementation: the bounded cache under
// its three policies, and the unbounded sync.Map baseline.
type cacheBackend interface {
	get(k uint64) (uint64, bool)
	set(k, v uint64)
	getOrLoad(k uint64, load func(uint64) uint64) uint64
	// gauges reports the backend-internal counters (evictions, expired,
	// loads, stampede_suppressed); the harness adds hits/misses/lookups.
	gauges() map[string]float64
	close()
}

// cdsCache adapts cache.Cache to the backend interface.
type cdsCache struct{ c *cache.Cache[uint64, uint64] }

func newCDSCache(p cache.Policy, shards int, extra ...cache.Option) cacheBackend {
	opts := []cache.Option{cache.WithPolicy(p), cache.WithTTL(cacheTTL)}
	if shards > 0 {
		opts = append(opts, cache.WithShards(shards))
	}
	opts = append(opts, extra...)
	return cdsCache{cache.New[uint64, uint64](cacheCap, opts...)}
}

func (b cdsCache) get(k uint64) (uint64, bool) { return b.c.Get(k) }
func (b cdsCache) set(k, v uint64)             { b.c.Set(k, v) }

func (b cdsCache) getOrLoad(k uint64, load func(uint64) uint64) uint64 {
	v, _ := b.c.GetOrLoad(context.Background(), k, func(_ context.Context, k uint64) (uint64, error) {
		return load(k), nil
	})
	return v
}

func (b cdsCache) gauges() map[string]float64 {
	st := b.c.Stats()
	return map[string]float64{
		"evictions":           float64(st.Evictions),
		"expired":             float64(st.Expired),
		"loads":               float64(st.Loads),
		"stampede_suppressed": float64(st.StampedeSuppressed),
		"weight_resident":     float64(st.WeightResident),
		"max_weight":          float64(b.c.MaxWeight()),
		"admission_rejects":   float64(st.AdmissionRejects),
		"evict_considered":    float64(st.EvictConsidered),
	}
}

func (b cdsCache) close() { b.c.Close() }

// syncMapTTL is the "just use sync.Map" baseline: entries carry an expiry
// deadline checked (and lazily deleted) on read, loads are naive
// get-then-load with no stampede protection, and nothing ever evicts —
// the footprint grows to the whole key space.
type syncMapTTL struct {
	m       sync.Map
	ttl     time.Duration
	expired atomic.Int64
	loads   atomic.Int64
}

type syncMapEntry struct {
	v       uint64
	expires int64
}

func newSyncMapTTL() cacheBackend { return &syncMapTTL{ttl: cacheTTL} }

func (b *syncMapTTL) get(k uint64) (uint64, bool) {
	if e, ok := b.m.Load(k); ok {
		en := e.(syncMapEntry)
		if time.Now().UnixNano() < en.expires {
			return en.v, true
		}
		b.m.Delete(k)
		b.expired.Add(1)
	}
	return 0, false
}

func (b *syncMapTTL) set(k, v uint64) {
	b.m.Store(k, syncMapEntry{v: v, expires: time.Now().Add(b.ttl).UnixNano()})
}

func (b *syncMapTTL) getOrLoad(k uint64, load func(uint64) uint64) uint64 {
	if v, ok := b.get(k); ok {
		return v
	}
	b.loads.Add(1)
	v := load(k)
	b.set(k, v)
	return v
}

func (b *syncMapTTL) gauges() map[string]float64 {
	return map[string]float64{
		"evictions":           0,
		"expired":             float64(b.expired.Load()),
		"loads":               float64(b.loads.Load()),
		"stampede_suppressed": 0,
		"weight_resident":     0,
		"max_weight":          0,
		"admission_rejects":   0,
		"evict_considered":    0,
	}
}

func (b *syncMapTTL) close() {}

// cacheCounters fold per-worker hit/miss tallies once at worker exit, so
// the gauge invariant hits + misses == lookups is exact for every backend
// without putting shared atomics on the measured path.
type cacheCounters struct {
	hits, misses atomic.Int64
}

func (c *cacheCounters) gauges(backend cacheBackend) map[string]float64 {
	g := backend.gauges()
	h, m := float64(c.hits.Load()), float64(c.misses.Load())
	g["hits"] = h
	g["misses"] = m
	g["lookups"] = h + m
	if h+m > 0 {
		g["hit_rate"] = h / (h + m)
	} else {
		g["hit_rate"] = 0
	}
	return g
}

// runCacheMix measures a getPct/setPct mix over Zipf(0.99) keys. The hot
// head of the key space is prefilled so every backend starts from the
// same warm state.
func runCacheMix(mk func() cacheBackend, cfg Config, th, getPct, setPct int) Result {
	b := mk()
	defer b.close()
	for k := uint64(0); k < cacheCap; k++ {
		b.set(k, k)
	}
	var ctr cacheCounters
	ops := cfg.ops(1 << 17)
	res := Run(th, ops, func(w int) func(int) {
		keys, err := NewKeyStream(cacheKeySpace, 0.99, uint64(w)*7919+1)
		if err != nil {
			panic(err) // static parameters; cannot fail at runtime
		}
		mix := NewMixGen(uint64(w)*31+7, getPct, setPct)
		hits, misses := 0, 0
		var once sync.Once
		fold := func() {
			ctr.hits.Add(int64(hits))
			ctr.misses.Add(int64(misses))
		}
		return func(i int) {
			k := keys.Next()
			if mix.Next() == 0 {
				if _, ok := b.get(k); ok {
					hits++
				} else {
					misses++
				}
			} else {
				b.set(k, k)
			}
			if i == ops-1 {
				once.Do(fold)
			}
		}
	})
	res.Gauges = ctr.gauges(b)
	return res
}

// cacheColdLoad is the simulated origin fetch for the stampede cell: ~20k
// SplitMix64 rounds, tens of microseconds — long enough that concurrent
// misses on the same key overlap the in-flight load.
func cacheColdLoad(k uint64) uint64 {
	v := k
	for i := 0; i < 20000; i++ {
		xrand.SplitMix64(&v)
	}
	return v
}

// runCacheStampede drives GetOrLoad: every worker marches through the
// same cold-key sequence (cacheStampedeRepeats consecutive requests per
// key), so each distinct key sees a burst of th*repeats near-simultaneous
// requests while it is still cold. Singleflight backends should perform ≈
// one origin load per distinct key and suppress the rest; the naive
// baseline loads once per racing request.
func runCacheStampede(mk func() cacheBackend, cfg Config, th int) Result {
	const repeats = 8
	b := mk()
	defer b.close()
	var ctr cacheCounters
	ops := cfg.ops(1 << 13)
	res := Run(th, ops, func(w int) func(int) {
		hits, misses := 0, 0
		var once sync.Once
		fold := func() {
			ctr.hits.Add(int64(hits))
			ctr.misses.Add(int64(misses))
		}
		return func(i int) {
			k := uint64(i / repeats) // all workers aligned on the same key
			if _, ok := b.get(k); ok {
				hits++
			} else {
				misses++
				b.getOrLoad(k, cacheColdLoad)
			}
			if i == ops-1 {
				once.Do(fold)
			}
		}
	})
	res.Gauges = ctr.gauges(b)
	res.Gauges["distinct_cold_keys"] = float64((ops + repeats - 1) / repeats)
	return res
}

// Loopy-trace parameters (the S17 admission cell): a small Zipf hot set
// that always fits, interleaved 1:1 with a sequential loop whose range
// exceeds the capacity left after the hot set. Every loop key's reuse
// distance beats any recency policy — retained-by-recency loop keys never
// hit — but a frequency-sketch admission filter freezes a resident loop
// subset that then hits on every lap. This is the cell where
// SIEVE+TinyLFU must beat plain SIEVE on hit_rate (the seeded regression
// test in package cache pins the same mechanism at smaller scale).
const (
	cacheLoopHotKeys = cacheCap / 4 // Zipf working set, far under capacity
	cacheLoopRange   = 2 * cacheCap // loop reuse distance > spare capacity
)

// runCacheLoopy measures cache-aside traffic (get; set on miss) over the
// hot-set + loop interleave. Workers share the key space but walk
// phase-shifted loop positions, keeping the loop sequential per worker.
func runCacheLoopy(mk func() cacheBackend, cfg Config, th int) Result {
	b := mk()
	defer b.close()
	for k := uint64(0); k < cacheLoopHotKeys; k++ {
		b.set(k, k) // warm the hot set; loop keys start cold
	}
	var ctr cacheCounters
	ops := cfg.ops(1 << 17)
	res := Run(th, ops, func(w int) func(int) {
		keys, err := NewKeyStream(cacheLoopHotKeys, 0.99, uint64(w)*7919+1)
		if err != nil {
			panic(err) // static parameters; cannot fail at runtime
		}
		loop := uint64(w) * 977 // phase-shift workers around the loop
		hits, misses := 0, 0
		var once sync.Once
		fold := func() {
			ctr.hits.Add(int64(hits))
			ctr.misses.Add(int64(misses))
		}
		return func(i int) {
			var k uint64
			if i&1 == 0 {
				// Loop keys live above the hot-set range.
				k = cacheLoopHotKeys + loop%cacheLoopRange
				loop++
			} else {
				k = keys.Next()
			}
			if _, ok := b.get(k); ok {
				hits++
			} else {
				misses++
				b.set(k, k)
			}
			if i == ops-1 {
				once.Do(fold)
			}
		}
	})
	res.Gauges = ctr.gauges(b)
	return res
}

// cacheEntryWeight derives a deterministic heavy-tailed weight from the
// key for the weighted S17 cell: mostly small objects (1..16), with ~1 in
// 128 keys a 512-unit giant — the distribution that makes multi-victim
// evictions routine.
func cacheEntryWeight(k uint64, _ uint64) int64 {
	x := k + 1
	h := xrand.SplitMix64(&x)
	if h%128 == 0 {
		return 512
	}
	return int64(1 + h%16)
}

// cacheWeightBudget keeps the weighted cells at roughly the same resident
// entry count as the counted cells: mean weight is ≈ 12 (16/2 plus the
// giants' contribution), so budget = 12 × capacity.
const cacheWeightBudget = 12 * cacheCap

// cacheAlgos is the S17 implementation sweep: the two scan-resistant
// policies (sharded), the single-lock LRU, and the sync.Map baseline.
func cacheAlgos(run func(mk func() cacheBackend, cfg Config, th int) Result) []ScenarioAlgo {
	return []ScenarioAlgo{
		{Label: "SIEVE", Run: func(cfg Config, th int) Result {
			return run(func() cacheBackend { return newCDSCache(cache.SIEVE, 0) }, cfg, th)
		}},
		{Label: "S3-FIFO", Run: func(cfg Config, th int) Result {
			return run(func() cacheBackend { return newCDSCache(cache.S3FIFO, 0) }, cfg, th)
		}},
		{Label: "LockedLRU", Run: func(cfg Config, th int) Result {
			return run(func() cacheBackend { return newCDSCache(cache.LRU, 1) }, cfg, th)
		}},
		{Label: "SyncMapTTL", Run: func(cfg Config, th int) Result {
			return run(newSyncMapTTL, cfg, th)
		}},
	}
}

// cacheAdmissionAlgos is the loopy-trace sweep: each scan-resistant
// policy with and without the TinyLFU admission filter, so the hit_rate
// column isolates what admission buys on a loop-heavy trace.
func cacheAdmissionAlgos(run func(mk func() cacheBackend, cfg Config, th int) Result) []ScenarioAlgo {
	tiny := cache.WithAdmission(cache.TinyLFU)
	return []ScenarioAlgo{
		{Label: "SIEVE", Run: func(cfg Config, th int) Result {
			return run(func() cacheBackend { return newCDSCache(cache.SIEVE, 0) }, cfg, th)
		}},
		{Label: "SIEVE+TinyLFU", Run: func(cfg Config, th int) Result {
			return run(func() cacheBackend { return newCDSCache(cache.SIEVE, 0, tiny) }, cfg, th)
		}},
		{Label: "S3-FIFO", Run: func(cfg Config, th int) Result {
			return run(func() cacheBackend { return newCDSCache(cache.S3FIFO, 0) }, cfg, th)
		}},
		{Label: "S3-FIFO+TinyLFU", Run: func(cfg Config, th int) Result {
			return run(func() cacheBackend { return newCDSCache(cache.S3FIFO, 0, tiny) }, cfg, th)
		}},
	}
}

// cacheWeightedAlgos is the weighted sweep: the bounded policies under a
// byte-like weight budget with heavy-tailed entry weights (one giant can
// evict dozens of small victims), plus the unbounded sync.Map baseline
// for contrast.
func cacheWeightedAlgos(run func(mk func() cacheBackend, cfg Config, th int) Result) []ScenarioAlgo {
	weighted := []cache.Option{
		cache.WithMaxWeight(cacheWeightBudget),
		cache.WithWeigher(cacheEntryWeight),
	}
	return []ScenarioAlgo{
		{Label: "SIEVE+weights", Run: func(cfg Config, th int) Result {
			return run(func() cacheBackend { return newCDSCache(cache.SIEVE, 0, weighted...) }, cfg, th)
		}},
		{Label: "S3-FIFO+weights", Run: func(cfg Config, th int) Result {
			return run(func() cacheBackend { return newCDSCache(cache.S3FIFO, 0, weighted...) }, cfg, th)
		}},
		{Label: "SIEVE+TinyLFU+weights", Run: func(cfg Config, th int) Result {
			return run(func() cacheBackend {
				return newCDSCache(cache.SIEVE, 0, append([]cache.Option{cache.WithAdmission(cache.TinyLFU)}, weighted...)...)
			}, cfg, th)
		}},
		{Label: "SyncMapTTL", Run: func(cfg Config, th int) Result {
			return run(newSyncMapTTL, cfg, th)
		}},
	}
}

// cacheScenarios is experiment S17: the bounded cache against the
// locked-LRU and sync.Map baselines.
func cacheScenarios() []Scenario {
	mix := func(getPct, setPct int) func(mk func() cacheBackend, cfg Config, th int) Result {
		return func(mk func() cacheBackend, cfg Config, th int) Result {
			return runCacheMix(mk, cfg, th, getPct, setPct)
		}
	}
	return []Scenario{
		{Family: "cache", Name: "zipf-0.99-get90-set10", Algos: cacheAlgos(mix(90, 10))},
		{Family: "cache", Name: "zipf-0.99-get50-set50", Algos: cacheAlgos(mix(50, 50))},
		{Family: "cache", Name: "stampede-cold-keys", Algos: cacheAlgos(runCacheStampede)},
		{Family: "cache", Name: "loopy-admission", Algos: cacheAdmissionAlgos(runCacheLoopy)},
		{Family: "cache", Name: "weighted-heavy-tail-get90-set10", Algos: cacheWeightedAlgos(mix(90, 10))},
	}
}
