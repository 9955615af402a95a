package optimizer

import (
	"sync"
	"unsafe"

	"physdes/internal/sqlparse"
)

// cacheShards is the shard count: far above any realistic worker count so
// shard collisions under a saturated pool stay rare. It is a power of two
// (the shard index is the top cacheShardBits bits of a hash).
const (
	cacheShardBits = 6
	cacheShards    = 1 << cacheShardBits
)

// cacheShard is one shard of AtomicCache's memo table. Concurrent probes
// hammering the store contend on per-shard locks instead of one global
// RWMutex. Concurrent misses on the same key are deduplicated in flight:
// the first claims the key and consults the inner optimizer, later ones
// wait for its value and count as hits. OptimizerCalls is an exact count,
// so racing misses must not each pay an inner call.
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

// maxPending bounds the misses one shard costs at once. Probing
// workers number at most the parallelism level and spread over
// cacheShards shards, so a miss rarely waits for a free slot.
const maxPending = 8

// init binds the shard's condition to its lock. The table is made on the
// shard's first fill: a store sees few distinct atoms per shard, and a
// nil map reads as empty.
func (sh *cacheShard) init() {
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

// fill stores the claimed key's value unless the key is already present,
// releases the claim and wakes the waiters; it reports whether it added
// an entry.
func (sh *cacheShard) fill(key cacheKey, v float64) bool {
	sh.mu.Lock()
	_, dup := sh.table[key]
	if !dup {
		if sh.table == nil {
			sh.table = make(map[cacheKey]float64) //physdes:allocok made on the shard's first fill, once per store
		}
		sh.table[key] = v
	}
	sh.mu.Unlock()
	sh.release(key)
	return !dup
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

// cacheKey is comparable: two keys are equal iff they hold the same
// *sqlparse.Analysis pointer AND the same atom id. Analyses are immutable
// once built by the workload package, so pointer identity is a sound
// statement key within one process. The invariant cuts both ways — two
// *distinct* parses of the same SQL text are distinct keys and
// intentionally do not share entries (see TestCacheKeyPointerIdentity) —
// while two distinct *Configuration values with one structure set share
// an id (see atomInterner), and so an entry.
type cacheKey struct {
	a    *sqlparse.Analysis
	atom uint32
}

// shardIndex routes a key to its shard: a multiplicative hash of the atom
// id mixed with the analysis pointer (shifted past alignment zeros),
// taking the product's top bits. Both components matter — a Delta row
// keeps the statement fixed across k configurations while a greedy tuner
// probe keeps the configuration fixed across N statements; either alone
// would serialize one of those access patterns onto a single shard.
func shardIndex(key cacheKey) int {
	const golden = 0x9e3779b97f4a7c15
	h := (uint64(uintptr(unsafe.Pointer(key.a)))>>3 ^ uint64(key.atom)*golden) * golden
	return int(h >> (64 - cacheShardBits))
}

// shard returns the shard holding key.
func (ac *AtomicCache) shard(key cacheKey) *cacheShard {
	return &ac.shards[shardIndex(key)]
}
