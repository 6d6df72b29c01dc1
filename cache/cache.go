package cache

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	cds "github.com/cds-suite/cds"
	"github.com/cds-suite/cds/cmap"
	"github.com/cds-suite/cds/internal/pad"
	"github.com/cds-suite/cds/internal/pow2"
)

// Compile-time interface compliance check.
var _ cds.Cache[int, string] = (*Cache[int, string])(nil)

// ErrLoaderPanic is the error a GetOrLoad follower receives when the
// flight's leader panicked inside the loader: the panic propagates on the
// leader's goroutine, and the followers fail rather than hang.
var ErrLoaderPanic = errors.New("cache: loader panicked")

// Cache is a bounded concurrent cache: a power-of-two array of
// independently locked shards, each a hash map plus an intrusive eviction
// policy (SIEVE by default; see Policy). Keys hash to shards with the same
// seeded hashing the cmap tables use, so operations on different shards
// never contend, and within a shard the scan-resistant policies record
// hits under the shared read lock — reads scale like a striped read-mostly
// map, not like a locked LRU.
//
// Entries can expire: Set applies the configured default TTL, SetTTL a
// per-entry one. Expired entries are misses on read (checked lazily) and
// are reclaimed incrementally by a background sweeper; call Close to stop
// it (Close is cheap and idempotent, and a no-op when no sweeper ever
// started).
//
// Two orthogonal options reshape the capacity contract. WithAdmission
// (TinyLFU) gates the eviction boundary: a full shard consults a
// frequency sketch and rejects inserts colder than the policy's would-be
// victim. WithMaxWeight switches the bound from entry counts to total
// weight (SetWeight / WithWeigher), so one insert may evict several
// victims. Both compose with every eviction policy.
//
// Progress: blocking (per shard). Hits on the SIEVE and S3-FIFO policies
// take only the shard's read lock.
type Cache[K comparable, V any] struct {
	hash      func(K) uint64
	mask      uint64
	shards    []shard[K, V]
	cap       int
	maxWeight int64
	weigher   func(K, V) int64
	ttl       time.Duration
	sweep     sweeper
	sweepBy   time.Duration
}

// shard is one lock domain: a map from key to entry, the policy's
// intrusive structures, the in-flight loader table, and its slice of the
// cache's gauges. Padding keeps neighbouring shards' hot fields off one
// cache line.
type shard[K comparable, V any] struct {
	mu        sync.RWMutex
	m         map[K]*entry[K, V]
	pol       policy[K, V]
	cap       int
	maxWeight int64            // this shard's slice of the weight budget; 0 = count-bounded
	adm       *admitter        // TinyLFU admission filter; nil = admit all
	flights   map[K]*flight[V] // lazily allocated; guarded by mu (write)

	//cdsvet:ignore padlayout per-shard telemetry gauges share this shard's lines by design; the trailing pad separates neighbouring shards, which is the false-sharing boundary that matters
	stats shardStats
	_     pad.CacheLinePad
}

// New returns a cache bounded at capacity entries with the given options
// (eviction policy, shard count, TTL). Capacity is split evenly across the
// shards, so per-shard eviction keeps the total at or under capacity at
// all times. New panics if capacity < 1.
func New[K comparable, V any](capacity int, opts ...Option) *Cache[K, V] {
	if capacity < 1 {
		panic("cache: capacity must be at least 1")
	}
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	n := cfg.shards
	if n <= 0 {
		n = 4 * runtime.GOMAXPROCS(0)
	}
	n = pow2.RoundUp(n, 1)
	for n > capacity {
		n >>= 1 // at least one entry per shard
	}
	for cfg.maxWeight > 0 && int64(n) > cfg.maxWeight {
		n >>= 1 // at least one weight unit per shard
	}
	c := &Cache[K, V]{
		hash:      cmap.NewHash[K](),
		mask:      uint64(n - 1),
		shards:    make([]shard[K, V], n),
		cap:       capacity,
		maxWeight: cfg.maxWeight,
		ttl:       cfg.ttl,
	}
	if cfg.weigher != nil {
		fn, ok := cfg.weigher.(func(K, V) int64)
		if !ok {
			panic("cache: WithWeigher type parameters do not match the cache's")
		}
		c.weigher = fn
	}
	base, extra := capacity/n, capacity%n
	var wbase, wextra int64
	if cfg.maxWeight > 0 {
		wbase, wextra = cfg.maxWeight/int64(n), cfg.maxWeight%int64(n)
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = base
		if i < extra {
			s.cap++
		}
		if cfg.maxWeight > 0 {
			s.maxWeight = wbase
			if int64(i) < wextra {
				s.maxWeight++
			}
		}
		s.m = make(map[K]*entry[K, V], s.cap)
		switch cfg.policy {
		case S3FIFO:
			s.pol = newS3FIFO[K, V](s.cap)
		case LRU:
			s.pol = newLRU[K, V](s.cap)
		default:
			s.pol = newSieve[K, V](s.cap)
		}
		if cfg.admission == TinyLFU {
			s.adm = newAdmitter(s.cap, uint64(i))
		}
	}
	c.sweepBy = cfg.ttl
	if cfg.sweepSet {
		c.sweepBy = cfg.sweep
	}
	return c
}

// NewSIEVE returns a cache evicting with the SIEVE policy.
func NewSIEVE[K comparable, V any](capacity int, opts ...Option) *Cache[K, V] {
	return New[K, V](capacity, append([]Option{WithPolicy(SIEVE)}, opts...)...)
}

// NewS3FIFO returns a cache evicting with the S3-FIFO policy.
func NewS3FIFO[K comparable, V any](capacity int, opts ...Option) *Cache[K, V] {
	return New[K, V](capacity, append([]Option{WithPolicy(S3FIFO)}, opts...)...)
}

// NewLRU returns a cache evicting with the locked LRU policy. Combined
// with WithShards(1) this is the classic single-lock LRU cache — the
// baseline the S17 benchmarks compare the scan-resistant policies
// against.
func NewLRU[K comparable, V any](capacity int, opts ...Option) *Cache[K, V] {
	return New[K, V](capacity, append([]Option{WithPolicy(LRU)}, opts...)...)
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	return &c.shards[c.hash(k)&c.mask]
}

// Get returns the value cached for k. A miss (ok=false) means k was never
// set, was evicted, or has expired — an expired entry is removed on the
// spot, so a miss is always followed by absence until the next Set.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	h := c.hash(k)
	s := &c.shards[h&c.mask]
	if s.adm != nil {
		s.adm.touch(h) // every lookup feeds the admission sketch, hit or miss
	}
	if s.pol.lockedHits() {
		s.mu.Lock()
		e := s.m[k]
		if e == nil {
			s.mu.Unlock()
			s.stats.misses.Add(1)
			return v, false
		}
		if e.expires != 0 && time.Now().UnixNano() >= e.expires {
			s.removeLocked(e)
			s.mu.Unlock()
			s.stats.expired.Add(1)
			s.stats.misses.Add(1)
			return v, false
		}
		s.pol.hit(e)
		v = e.val
		s.mu.Unlock()
		s.stats.hits.Add(1)
		return v, true
	}
	s.mu.RLock()
	e := s.m[k]
	if e == nil {
		s.mu.RUnlock()
		s.stats.misses.Add(1)
		return v, false
	}
	if e.expires != 0 && time.Now().UnixNano() >= e.expires {
		s.mu.RUnlock()
		s.expireLazy(k, e)
		s.stats.misses.Add(1)
		return v, false
	}
	s.pol.hit(e) // per-entry atomic; legal under the read lock
	v = e.val
	s.mu.RUnlock()
	s.stats.hits.Add(1)
	return v, true
}

// expireLazy upgrades to the exclusive lock and removes e if it is still
// the resident entry for k and still expired (a concurrent Set may have
// refreshed or replaced it between the read-locked check and here).
func (s *shard[K, V]) expireLazy(k K, e *entry[K, V]) {
	s.mu.Lock()
	if s.m[k] == e && e.expires != 0 && time.Now().UnixNano() >= e.expires {
		s.removeLocked(e)
		s.stats.expired.Add(1)
	}
	s.mu.Unlock()
}

// removeLocked unlinks e from the policy and the map; caller holds the
// exclusive lock and accounts the removal (expired/evictions/deletes).
func (s *shard[K, V]) removeLocked(e *entry[K, V]) {
	s.pol.remove(e)
	delete(s.m, e.key)
	s.stats.weightRes.Add(-e.weight)
}

// Set caches v for k with the cache's default TTL, evicting if needed.
func (c *Cache[K, V]) Set(k K, v V) {
	c.SetTTL(k, v, c.ttl)
}

// SetTTL caches v for k with an entry-specific time-to-live; ttl <= 0
// means the entry never expires. Setting an existing key updates it in
// place and counts as an access for the eviction policy.
func (c *Cache[K, V]) SetTTL(k K, v V, ttl time.Duration) {
	c.set(k, v, c.weigh(k, v), ttl)
}

// SetWeight caches v for k with an explicit capacity weight (for example,
// the entry's size in bytes) and the cache's default TTL, overriding any
// WithWeigher result for this entry. Weights below 1 clamp to 1; weights
// only bound residency when the cache was built with WithMaxWeight. An
// entry whose weight alone exceeds its shard's share of the weight budget
// is rejected — caching it would pin the shard over capacity — and the
// rejection counts in Stats.AdmissionRejects.
func (c *Cache[K, V]) SetWeight(k K, v V, weight int64) {
	c.set(k, v, weight, c.ttl)
}

// weigh computes the default weight for an entry: the configured weigher,
// or 1 (plain entry counting).
func (c *Cache[K, V]) weigh(k K, v V) int64 {
	if c.weigher != nil {
		return c.weigher(k, v)
	}
	return 1
}

// set is the common insert path: hash once, feed the admission sketch (a
// write is an access), then mutate under the shard lock.
func (c *Cache[K, V]) set(k K, v V, w int64, ttl time.Duration) {
	var expires int64
	if ttl > 0 {
		expires = time.Now().Add(ttl).UnixNano()
		c.maybeStartSweeper()
	}
	h := c.hash(k)
	s := &c.shards[h&c.mask]
	if s.adm != nil {
		s.adm.touch(h)
	}
	s.mu.Lock()
	s.setLocked(k, v, h, w, expires)
	s.mu.Unlock()
}

// setLocked inserts or updates k under the exclusive lock, evicting down
// to capacity — by entry count, or by total weight when WithMaxWeight is
// set, in which case one insert may evict several victims. With TinyLFU
// admission, each would-be victim is compared against the incoming key
// first, and a colder-than-victim insert is rejected instead of evicting.
func (s *shard[K, V]) setLocked(k K, v V, h uint64, w int64, expires int64) {
	if w < 1 {
		w = 1
	}
	infeasible := s.maxWeight > 0 && w > s.maxWeight
	if e := s.m[k]; e != nil {
		if infeasible {
			// The update outgrew the shard's whole weight budget: keeping
			// the old value would be stale (a later Get must not observe
			// it), so the key is removed outright.
			s.stats.evictConsidered.Add(1)
			s.stats.admitRejects.Add(1)
			s.removeLocked(e)
			return
		}
		s.stats.weightRes.Add(w - e.weight)
		e.weight = w
		e.val = v
		e.expires = expires
		s.pol.hit(e)
		s.shedLocked()
		return
	}
	if infeasible {
		s.stats.evictConsidered.Add(1)
		s.stats.admitRejects.Add(1)
		return
	}
	// Evict before inserting: the incoming entry must never be its own
	// eviction's victim (SIEVE's hand would otherwise sweep onto a
	// freshly added, necessarily unvisited entry and throw it out).
	for s.overLocked(w) {
		victim := s.pol.victim()
		if victim == nil {
			break
		}
		s.stats.evictConsidered.Add(1)
		if s.adm != nil && !s.adm.admit(h, victim.hash) {
			// The incoming key is no hotter than the coldest resident:
			// keep the residents, drop the insert.
			s.stats.admitRejects.Add(1)
			return
		}
		s.pol.evict() // settles on the same entry victim() returned
		delete(s.m, victim.key)
		s.stats.weightRes.Add(-victim.weight)
		s.stats.evictions.Add(1)
	}
	e := &entry[K, V]{key: k, val: v, hash: h, weight: w, expires: expires}
	s.m[k] = e
	s.pol.add(e)
	s.stats.weightRes.Add(w)
}

// overLocked reports whether inserting a new entry of weight w would
// exceed the shard's bound: resident weight under WithMaxWeight, entry
// count otherwise.
func (s *shard[K, V]) overLocked(w int64) bool {
	if s.maxWeight > 0 {
		return s.stats.weightRes.Load()+w > s.maxWeight
	}
	return len(s.m) >= s.cap
}

// shedLocked evicts until the resident weight fits the shard's budget
// again: an in-place update that grew an entry can push the shard over
// without inserting anything. The freshly updated entry was just hit, so
// every policy prefers other victims; admission is not consulted — the
// update is already resident.
func (s *shard[K, V]) shedLocked() {
	for s.maxWeight > 0 && s.stats.weightRes.Load() > s.maxWeight {
		victim := s.pol.evict()
		if victim == nil {
			return
		}
		delete(s.m, victim.key)
		s.stats.weightRes.Add(-victim.weight)
		s.stats.evictConsidered.Add(1)
		s.stats.evictions.Add(1)
	}
}

// Delete removes k, reporting whether a live entry was present (an entry
// that had already expired is removed but reported absent).
func (c *Cache[K, V]) Delete(k K) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	e := s.m[k]
	if e == nil {
		s.mu.Unlock()
		return false
	}
	live := e.expires == 0 || time.Now().UnixNano() < e.expires
	s.removeLocked(e)
	s.mu.Unlock()
	if !live {
		s.stats.expired.Add(1)
	}
	return live
}

// Len reports the number of resident entries, including entries that have
// expired but not yet been noticed by a read or the sweeper.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Cap reports the capacity the cache was constructed with.
func (c *Cache[K, V]) Cap() int { return c.cap }

// MaxWeight reports the weight bound set by WithMaxWeight, or 0 when the
// cache bounds entry counts instead.
func (c *Cache[K, V]) MaxWeight() int64 { return c.maxWeight }

// GetMany looks up a batch of keys, taking each touched shard's lock once
// rather than once per key. It returns parallel value/ok slices in key
// order.
func (c *Cache[K, V]) GetMany(keys []K) ([]V, []bool) {
	vals := make([]V, len(keys))
	oks := make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, oks
	}
	now := time.Now().UnixNano()
	groups, hashes := c.groupByShard(keys)
	for si, idxs := range groups {
		s := &c.shards[si]
		if s.adm != nil {
			for _, i := range idxs {
				s.adm.touch(hashes[i])
			}
		}
		var lazy []*entry[K, V]
		locked := s.pol.lockedHits()
		if locked {
			s.mu.Lock()
		} else {
			s.mu.RLock()
		}
		hits, misses, expired := int64(0), int64(0), int64(0)
		for _, i := range idxs {
			e := s.m[keys[i]]
			if e == nil {
				misses++
				continue
			}
			if e.expires != 0 && now >= e.expires {
				misses++
				if locked {
					s.removeLocked(e)
					expired++
				} else {
					lazy = append(lazy, e)
				}
				continue
			}
			s.pol.hit(e)
			vals[i], oks[i] = e.val, true
			hits++
		}
		if locked {
			s.mu.Unlock()
		} else {
			s.mu.RUnlock()
		}
		// Expired entries found under the read lock are removed after it
		// is released, re-validated exactly like the single-key path.
		for _, e := range lazy {
			s.expireLazy(e.key, e)
		}
		s.stats.hits.Add(hits)
		s.stats.misses.Add(misses)
		s.stats.expired.Add(expired)
	}
	return vals, oks
}

// SetMany caches the parallel keys/vals batch with the default TTL,
// taking each touched shard's lock once. It panics if the slices differ
// in length.
func (c *Cache[K, V]) SetMany(keys []K, vals []V) {
	if len(keys) != len(vals) {
		panic("cache: SetMany slice lengths differ")
	}
	if len(keys) == 0 {
		return
	}
	var expires int64
	if c.ttl > 0 {
		expires = time.Now().Add(c.ttl).UnixNano()
		c.maybeStartSweeper()
	}
	groups, hashes := c.groupByShard(keys)
	// The weigher is user code: run it before any shard lock is taken, as
	// Set does, so one that panics strands nothing.
	weights := make([]int64, len(keys))
	for i := range keys {
		weights[i] = c.weigh(keys[i], vals[i])
	}
	for si, idxs := range groups {
		s := &c.shards[si]
		if s.adm != nil {
			for _, i := range idxs {
				s.adm.touch(hashes[i])
			}
		}
		s.mu.Lock()
		for _, i := range idxs {
			s.setLocked(keys[i], vals[i], hashes[i], weights[i], expires)
		}
		s.mu.Unlock()
	}
}

// groupByShard buckets key positions by shard index so the batch
// operations lock each shard exactly once, returning each key's hash
// alongside so callers hash exactly once per key.
func (c *Cache[K, V]) groupByShard(keys []K) (map[uint64][]int, []uint64) {
	groups := make(map[uint64][]int)
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = c.hash(k)
		si := hashes[i] & c.mask
		groups[si] = append(groups[si], i)
	}
	return groups, hashes
}

// flight is one in-progress load: the leader fills val/err and closes
// done; followers wait on done (or their context) and share the outcome.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// GetOrLoad returns the cached value for k, or loads it exactly once:
// concurrent GetOrLoad calls for the same key while a load is in flight
// wait for that load instead of issuing their own (the singleflight
// pattern — cache-aside without origin stampedes; suppressed callers are
// counted in Stats.StampedeSuppressed). A successful load is cached with
// the default TTL before the waiters are released; a failed load is not
// cached, and every caller of that flight receives the loader's error. A
// waiter whose ctx ends first returns ctx's error while the load
// continues for the others; ctx is otherwise only passed through to the
// loader.
func (c *Cache[K, V]) GetOrLoad(ctx context.Context, k K, load func(context.Context, K) (V, error)) (V, error) {
	if v, ok := c.Get(k); ok {
		return v, nil
	}
	s := c.shardFor(k)
	s.mu.Lock()
	// Re-check under the exclusive lock: the value may have landed (or a
	// flight may have started) since the miss.
	if e := s.m[k]; e != nil {
		if e.expires == 0 || time.Now().UnixNano() < e.expires {
			s.pol.hit(e) // exclusive lock held: safe for every policy
			v := e.val
			s.mu.Unlock()
			return v, nil
		}
		s.removeLocked(e)
		s.stats.expired.Add(1)
	}
	if s.flights == nil {
		s.flights = make(map[K]*flight[V])
	}
	if f := s.flights[k]; f != nil {
		s.mu.Unlock()
		s.stats.suppressed.Add(1)
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	s.flights[k] = f
	s.mu.Unlock()

	s.stats.loads.Add(1)
	settled := false
	defer func() {
		// Unregister and release the followers even if the loader
		// panicked: a stranded flight would wedge every later miss on k.
		// The panic itself propagates on the leader's goroutine.
		if !settled {
			f.err = ErrLoaderPanic
		}
		s.mu.Lock()
		delete(s.flights, k)
		s.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = load(ctx, k)
	settled = true
	if f.err == nil {
		c.Set(k, f.val)
	}
	return f.val, f.err
}

// shardStats are one shard's gauge slice; Stats folds them. Plain atomics
// suffice: each counter is only contended by goroutines already sharing
// the shard's lock, and the shard's trailing pad keeps neighbouring
// shards' counters on separate cache lines.
type shardStats struct {
	hits, misses, evictions, expired, loads, suppressed atomic.Int64

	// weightRes is a gauge, not a counter: the shard's resident weight,
	// mutated only under the exclusive lock (atomic so Stats can read it
	// without one). The admission pair are counters like the rest.
	weightRes, admitRejects, evictConsidered atomic.Int64
}

// Stats is a point-in-time snapshot of the cache's gauges. Counts are
// exact in quiescent states; under concurrency each gauge is individually
// accurate but the set is not an atomic snapshot.
type Stats struct {
	// Hits and Misses partition every completed lookup (Get, GetMany,
	// and GetOrLoad's initial probe): Hits + Misses == Lookups().
	Hits, Misses int64
	// Evictions counts entries removed by the policy to respect capacity;
	// Expired counts entries removed because their TTL passed (by a lazy
	// read, a Delete that arrived late, or the background sweeper).
	Evictions, Expired int64
	// Loads counts loader invocations by GetOrLoad leaders;
	// StampedeSuppressed counts the GetOrLoad callers that waited on an
	// in-flight load instead of issuing their own. Suppressed callers
	// missed first, so StampedeSuppressed <= Misses.
	Loads, StampedeSuppressed int64
	// WeightResident is the total weight of resident entries — at most
	// MaxWeight when WithMaxWeight bounds the cache, and simply the entry
	// count otherwise (every unweighted entry weighs 1).
	WeightResident int64
	// EvictConsidered counts victims examined at the eviction boundary
	// (including rejected inserts whose weight alone exceeded a shard's
	// budget); AdmissionRejects counts the inserts the admission filter —
	// or the weight-feasibility check — turned away instead of evicting
	// for. Every rejection considered a victim first, so
	// AdmissionRejects <= EvictConsidered.
	EvictConsidered, AdmissionRejects int64
}

// Lookups returns the total completed lookups (Hits + Misses).
func (s Stats) Lookups() int64 { return s.Hits + s.Misses }

// HitRate returns Hits / Lookups in [0, 1], or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if l := s.Lookups(); l > 0 {
		return float64(s.Hits) / float64(l)
	}
	return 0
}

// Stats returns a snapshot of the cache's gauges summed across shards.
func (c *Cache[K, V]) Stats() Stats {
	var t Stats
	for i := range c.shards {
		st := &c.shards[i].stats
		t.Hits += st.hits.Load()
		t.Misses += st.misses.Load()
		t.Evictions += st.evictions.Load()
		t.Expired += st.expired.Load()
		t.Loads += st.loads.Load()
		t.StampedeSuppressed += st.suppressed.Load()
		t.WeightResident += st.weightRes.Load()
		t.EvictConsidered += st.evictConsidered.Load()
		t.AdmissionRejects += st.admitRejects.Load()
	}
	return t
}

// sweeper owns the background expiry goroutine's lifecycle: started
// lazily by the first expiring Set (so TTL-less caches never spawn a
// goroutine), stopped by Close.
type sweeper struct {
	mu      sync.Mutex
	started bool
	closed  bool
	stop    chan struct{}
	done    chan struct{}
}

func (c *Cache[K, V]) maybeStartSweeper() {
	if c.sweepBy <= 0 {
		return
	}
	w := &c.sweep
	w.mu.Lock()
	if w.started || w.closed {
		w.mu.Unlock()
		return
	}
	w.started = true
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	w.mu.Unlock()
	go c.runSweeper(w.stop, w.done)
}

// runSweeper wakes every sweep interval and scans a bounded batch of each
// shard for expired entries: amortized cleanup, not a stop-the-world
// scan. Go's randomized map iteration order gives successive batches
// probabilistic coverage of the whole shard, and read-side lazy expiry
// catches whatever the sweeper has not reached yet.
func (c *Cache[K, V]) runSweeper(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(c.sweepBy)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			now := time.Now().UnixNano()
			for i := range c.shards {
				c.shards[i].sweepBatch(now)
			}
		}
	}
}

// sweepBatch removes up to a capacity fraction of expired entries from
// one shard.
func (s *shard[K, V]) sweepBatch(now int64) {
	limit := s.cap / 8
	if limit < 32 {
		limit = 32
	}
	s.mu.Lock()
	seen, removed := 0, int64(0)
	for _, e := range s.m {
		if seen++; seen > limit {
			break
		}
		if e.expires != 0 && now >= e.expires {
			s.removeLocked(e)
			removed++
		}
	}
	s.mu.Unlock()
	s.stats.expired.Add(removed)
}

// Close stops the background sweeper, if one ever started, and waits for
// it to exit. It is idempotent, safe to call concurrently with cache
// operations, and the cache remains usable afterwards (minus background
// expiry).
func (c *Cache[K, V]) Close() {
	w := &c.sweep
	w.mu.Lock()
	wasStarted, wasClosed := w.started, w.closed
	w.closed = true
	if wasStarted && !wasClosed {
		close(w.stop)
	}
	w.mu.Unlock()
	if wasStarted && !wasClosed {
		<-w.done
	}
}
