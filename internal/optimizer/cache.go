package optimizer

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"physdes/internal/obs"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// Cached memoizes what-if calls per (statement, configuration) pair.
// Tuning tools layer exactly this over the what-if API: a greedy search
// re-evaluates the same statement under overlapping configurations, and
// only cache misses pay the optimization cost. Hits are NOT charged to the
// underlying optimizer's call counter, so the savings are visible in the
// same accounting the paper uses.
//
// Keys combine the statement's pointer identity with the configuration
// fingerprint: analyses are immutable once built by the workload package,
// so pointer identity is a sound statement key within one process. The
// invariant cuts both ways — two *distinct* parses of the same SQL text
// are distinct keys and intentionally do not share entries (see
// TestCacheKeyPointerIdentity).
//
// The memo table is sharded so batch-pool workers hammering the cache
// concurrently contend on per-shard locks instead of one global RWMutex.
// Concurrent misses on the same key are deduplicated in flight: the first
// claims the key and consults the inner optimizer, later ones wait for its
// value and count as hits. OptimizerCalls is an exact count, so racing
// misses must not each pay an inner call.
type Cached struct {
	inner *Optimizer

	// atoms, when non-nil, is consulted on memo misses before direct
	// costing: the miss is decomposed into atoms (atoms.go) and reassembled
	// from the atom store, so only never-seen atoms pay inner calls.
	atoms *AtomicCache

	shards  [cacheShards]cacheShard
	entries atomic.Int64

	hits   atomic.Int64
	misses atomic.Int64

	metrics atomic.Pointer[cacheMetrics]
}

// cacheShards is the shard count: far above any realistic worker count so
// shard collisions under a saturated pool stay rare. Must be a power of
// two (the shard index is a hash mask).
const cacheShards = 64

type cacheShard struct {
	mu    sync.RWMutex
	table map[cacheKey]float64
	// pending[:npending] are the keys whose miss is being costed; a
	// goroutine missing on a pending key (or finding every slot taken)
	// waits on cond, which is bound to mu, and re-reads the table when
	// woken. A fixed array keeps the miss path allocation-free.
	pending  [maxPending]cacheKey
	npending int
	cond     sync.Cond
}

// maxPending bounds the misses one shard costs at once. Batch-pool
// workers number at most the parallelism level and spread over
// cacheShards shards, so a miss rarely waits for a free slot.
const maxPending = 8

func (sh *cacheShard) init() {
	sh.table = make(map[cacheKey]float64)
	sh.cond.L = &sh.mu
}

// get reads the table under the read lock.
func (sh *cacheShard) get(key cacheKey) (float64, bool) {
	sh.mu.RLock()
	v, ok := sh.table[key]
	sh.mu.RUnlock()
	return v, ok
}

// claim returns the key's stored value, waiting while another goroutine
// costs it. ok=false means the caller now owns the miss: it must cost the
// key and then call fill (or release, if costing panics).
func (sh *cacheShard) claim(key cacheKey) (v float64, ok bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if v, ok = sh.table[key]; ok {
			return v, true
		}
		if sh.pendingIndex(key) < 0 && sh.npending < maxPending {
			sh.pending[sh.npending] = key
			sh.npending++
			return 0, false
		}
		sh.cond.Wait()
	}
}

// pendingIndex returns key's slot in pending, or -1; callers hold mu.
func (sh *cacheShard) pendingIndex(key cacheKey) int {
	for i := 0; i < sh.npending; i++ {
		if sh.pending[i] == key {
			return i
		}
	}
	return -1
}

// put stores v unless the key is already present and reports whether it
// added an entry.
func (sh *cacheShard) put(key cacheKey, v float64) bool {
	sh.mu.Lock()
	_, dup := sh.table[key]
	if !dup {
		sh.table[key] = v
	}
	sh.mu.Unlock()
	return !dup
}

// fill stores the claimed key's value, releases the claim and wakes the
// waiters; it reports whether it added an entry.
func (sh *cacheShard) fill(key cacheKey, v float64) bool {
	added := sh.put(key, v)
	sh.release(key)
	return added
}

// release drops a claim and wakes the waiters, which re-read the table
// (and claim the key themselves when the owner stored nothing).
func (sh *cacheShard) release(key cacheKey) {
	sh.mu.Lock()
	i := sh.pendingIndex(key)
	sh.npending--
	sh.pending[i] = sh.pending[sh.npending]
	sh.pending[sh.npending] = cacheKey{}
	sh.mu.Unlock()
	sh.cond.Broadcast()
}

// releaseUnfilled releases the claim on key unless *filled: deferred by a
// miss's owner, it lets a waiter retry when costing panicked.
func (sh *cacheShard) releaseUnfilled(key cacheKey, filled *bool) {
	if !*filled {
		sh.release(key)
	}
}

// reset empties the table. In-flight claims stay pending until their
// owners fill or release them.
func (sh *cacheShard) reset() {
	sh.mu.Lock()
	sh.table = make(map[cacheKey]float64)
	sh.mu.Unlock()
}

// cacheMetrics holds the registry handles resolved by SetMetrics.
type cacheMetrics struct {
	hits    *obs.Counter
	misses  *obs.Counter
	entries *obs.Gauge
}

// cacheKey is comparable: two keys are equal iff they hold the same
// *sqlparse.Analysis pointer AND the same configuration fingerprint.
type cacheKey struct {
	a   *sqlparse.Analysis
	cfg string
}

// keyOf returns the memo key of (a, cfg).
func keyOf(a *sqlparse.Analysis, cfg *physical.Configuration) cacheKey {
	return cacheKey{a: a, cfg: cfg.Fingerprint()}
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// shardIndex routes a key to its shard: the FNV-1a hash of the
// configuration fingerprint (computed once, by the configuration), mixed
// with the analysis pointer (shifted past alignment zeros). Both
// components matter — a Delta row keeps the statement fixed across k
// configurations while a greedy tuner probe keeps the configuration fixed
// across N statements; either alone would serialize one of those access
// patterns onto a single shard.
func shardIndex(a *sqlparse.Analysis, fpHash uint64) int {
	h := fpHash ^ uint64(uintptr(unsafe.Pointer(a)))>>3
	h *= fnvPrime64
	return int(h & (cacheShards - 1))
}

// shardOf returns the shard holding the key of (a, cfg).
func shardOf(shards *[cacheShards]cacheShard, a *sqlparse.Analysis, cfg *physical.Configuration) *cacheShard {
	return &shards[shardIndex(a, cfg.FingerprintHash())]
}

// NewCached wraps an optimizer with a memo table.
func NewCached(inner *Optimizer) *Cached {
	c := &Cached{inner: inner}
	for i := range c.shards {
		c.shards[i].init()
	}
	return c
}

// NewCachedAtomic wraps an optimizer with the memo table plus the
// atomic-configuration sharing layer: memo misses are decomposed into
// atoms and reassembled from the atom store (see atoms.go), so across
// overlapping configurations only never-seen atoms pay inner optimizer
// calls. Costs are bit-identical to NewCached — only the call accounting
// shrinks.
func NewCachedAtomic(inner *Optimizer) *Cached {
	c := NewCached(inner)
	c.atoms = NewAtomicCache(inner, DefaultMaxAtomWidth)
	return c
}

// Atoms returns the atom store, or nil when atom sharing is disabled.
func (c *Cached) Atoms() *AtomicCache { return c.atoms }

// SetMetrics exports the cache's hit/miss accounting on the registry:
// optimizer_cache_hits_total, optimizer_cache_misses_total and the
// optimizer_cache_entries gauge. When atom sharing is enabled the atom
// store's metrics are attached too. Passing nil detaches.
func (c *Cached) SetMetrics(r *obs.Registry) {
	if c.atoms != nil {
		c.atoms.SetMetrics(r)
	}
	if r == nil {
		c.metrics.Store(nil)
		return
	}
	c.metrics.Store(&cacheMetrics{
		hits:    r.Counter("optimizer_cache_hits_total"),
		misses:  r.Counter("optimizer_cache_misses_total"),
		entries: r.Gauge("optimizer_cache_entries"),
	})
}

// Cost returns the memoized cost, consulting the underlying optimizer on a
// miss. A concurrent miss on a key already being costed waits for that
// value and counts as a hit, exactly as the later call of a serial pair.
func (c *Cached) Cost(a *sqlparse.Analysis, cfg *physical.Configuration) float64 {
	key := keyOf(a, cfg)
	sh := shardOf(&c.shards, a, cfg)
	v, ok := sh.get(key)
	if !ok {
		v, ok = sh.claim(key)
	}
	m := c.metrics.Load()
	if ok {
		c.hits.Add(1)
		if m != nil {
			m.hits.Inc()
		}
		return v
	}
	c.misses.Add(1)
	if m != nil {
		m.misses.Inc()
	}
	filled := false
	defer sh.releaseUnfilled(key, &filled)
	if c.atoms != nil {
		v = c.atoms.Cost(a, cfg)
	} else {
		v = c.inner.Cost(a, cfg)
	}
	if sh.fill(key, v) {
		c.entries.Add(1)
	}
	filled = true
	if m != nil {
		m.entries.Set(float64(c.entries.Load()))
	}
	return v
}

// Stats reports the cache's accounting in one call: hits, misses and the
// current memo-table size.
func (c *Cached) Stats() (hits, misses int64, entries int) {
	return c.hits.Load(), c.misses.Load(), c.Entries()
}

// Hits returns the number of calls served from the memo table.
func (c *Cached) Hits() int64 { return c.hits.Load() }

// Misses returns the number of calls forwarded to the optimizer.
func (c *Cached) Misses() int64 { return c.misses.Load() }

// Entries returns the memo table size (summed across shards).
func (c *Cached) Entries() int { return int(c.entries.Load()) }

// Inner returns the wrapped optimizer (for call accounting).
func (c *Cached) Inner() *Optimizer { return c.inner }

// Reset clears the memo table and counters. Registry counters are
// monotonic and keep their totals; the entries gauge drops to zero.
func (c *Cached) Reset() {
	for i := range c.shards {
		c.shards[i].reset()
	}
	c.entries.Store(0)
	c.hits.Store(0)
	c.misses.Store(0)
	if c.atoms != nil {
		c.atoms.Reset()
	}
	if m := c.metrics.Load(); m != nil {
		m.entries.Set(0)
	}
}
