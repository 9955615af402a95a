package optimizer

import (
	"fmt"
	"sync"
	"testing"

	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// TestCacheKeyPointerIdentity pins the cacheKey semantics the sharded
// rewrite must preserve: keys are (Analysis pointer, configuration
// fingerprint) pairs, equal exactly when both components match. Two
// distinct parses of the same SQL text are distinct keys by design.
func TestCacheKeyPointerIdentity(t *testing.T) {
	a1 := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_orderkey = 5")
	a2 := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_orderkey = 5")
	if a1 == a2 {
		t.Fatal("parser returned the same *Analysis for two parses; pointer-identity keys need fresh allocations")
	}
	if (cacheKey{a: a1, cfg: "X"}) != (cacheKey{a: a1, cfg: "X"}) {
		t.Error("identical (pointer, fingerprint) keys must compare equal")
	}
	if (cacheKey{a: a1, cfg: "X"}) == (cacheKey{a: a2, cfg: "X"}) {
		t.Error("distinct parses of the same SQL must yield distinct keys")
	}
	if (cacheKey{a: a1, cfg: "X"}) == (cacheKey{a: a1, cfg: "Y"}) {
		t.Error("distinct fingerprints must yield distinct keys")
	}
	// Shard routing must be a pure in-range function of the key.
	h := physical.NewConfiguration("x", physical.NewIndex("lineitem", []string{"l_orderkey"})).FingerprintHash()
	if shardIndex(a1, h) != shardIndex(a1, h) {
		t.Error("shardIndex is not stable for equal keys")
	}
	if idx := shardIndex(a1, h); idx < 0 || idx >= cacheShards {
		t.Errorf("shardIndex out of range: %d", idx)
	}
}

// TestCacheBatchAliasAccounting extends TestCacheKeyPointerIdentity to the
// batched path: requests aliasing the same (analysis, config) key within
// one parallel batch must charge exactly one miss (the first occurrence)
// with the aliases counted as hits — the same accounting a serial loop of
// Cost calls produces. Before the dedupe-before-dispatch fix, aliased
// requests raced to miss independently and each paid an inner call.
func TestCacheBatchAliasAccounting(t *testing.T) {
	const distinct = 16
	analyses := make([]*sqlparse.Analysis, distinct)
	for i := range analyses {
		analyses[i] = analyze(t, fmt.Sprintf(
			"SELECT l_quantity FROM lineitem WHERE l_orderkey = %d", i+1))
	}
	cfg := physical.NewConfiguration("ix",
		physical.NewIndex("lineitem", []string{"l_orderkey"}))

	// Interleave two aliases of every key so the batch (32 requests) crosses
	// the pool threshold and each key appears twice.
	reqs := make([]Request, 0, 2*distinct)
	for _, a := range analyses {
		reqs = append(reqs, Request{Analysis: a, Config: cfg})
	}
	for _, a := range analyses {
		reqs = append(reqs, Request{Analysis: a, Config: cfg})
	}

	// Serial reference: a plain Cost loop on a fresh cache.
	ref := NewCached(New(testCat))
	want := make([]float64, len(reqs))
	for i, r := range reqs {
		want[i] = ref.Cost(r.Analysis, r.Config)
	}
	refHits, refMisses, _ := ref.Stats()

	for _, par := range []int{2, 4, 8} {
		c := NewCached(New(testCat))
		out := c.Batch(reqs, par)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("par=%d: out[%d] = %v, want %v", par, i, out[i], want[i])
			}
		}
		hits, misses, entries := c.Stats()
		if hits != refHits || misses != refMisses {
			t.Errorf("par=%d: hits/misses = %d/%d, want serial accounting %d/%d",
				par, hits, misses, refHits, refMisses)
		}
		if misses != distinct {
			t.Errorf("par=%d: misses = %d, want %d (one per distinct key)", par, misses, distinct)
		}
		if entries != distinct {
			t.Errorf("par=%d: entries = %d, want %d", par, entries, distinct)
		}
		if calls := c.Inner().Calls(); calls != distinct {
			t.Errorf("par=%d: inner optimizer charged %d calls, want %d — aliased requests double-counted",
				par, calls, distinct)
		}
	}
}

// TestCachedSameFingerprintSharesEntry is the flip side of pointer-identity
// statement keys: two distinct *Configuration values built from the same
// structures share a fingerprint, hence a cache entry.
func TestCachedSameFingerprintSharesEntry(t *testing.T) {
	c := NewCached(New(testCat))
	a := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_orderkey = 5")
	cfgA := physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_orderkey"}))
	cfgB := physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_orderkey"}))
	if cfgA == cfgB {
		t.Fatal("want distinct Configuration values")
	}
	if cfgA.Fingerprint() != cfgB.Fingerprint() {
		t.Fatalf("equal configurations should share a fingerprint: %q vs %q",
			cfgA.Fingerprint(), cfgB.Fingerprint())
	}
	if va, vb := c.Cost(a, cfgA), c.Cost(a, cfgB); va != vb {
		t.Errorf("shared entry returned different values: %v vs %v", va, vb)
	}
	if h, m, e := c.Stats(); h != 1 || m != 1 || e != 1 {
		t.Errorf("hits/misses/entries = %d/%d/%d, want 1/1/1", h, m, e)
	}
}

// TestCachedShardedStorm hammers the sharded memo table from many
// goroutines with a mixed hit/miss workload: half the key grid is
// pre-warmed (guaranteed hits), the other half races to fill. The
// accounting must balance exactly — every request is either a hit or a
// miss — the table must end with exactly one entry per distinct key, and
// every value must match a serial reference, and each distinct key must
// miss exactly once. Under -race this doubles as the cache's data-race
// exercise.
func TestCachedShardedStorm(t *testing.T) {
	c := NewCached(New(testCat))

	const nStatements = 24
	analyses := make([]*sqlparse.Analysis, nStatements)
	for i := range analyses {
		analyses[i] = analyze(t, fmt.Sprintf(
			"SELECT l_quantity FROM lineitem WHERE l_orderkey = %d", i+1))
	}
	configs := []*physical.Configuration{
		physical.NewConfiguration("empty"),
		physical.NewConfiguration("ix1", physical.NewIndex("lineitem", []string{"l_orderkey"})),
		physical.NewConfiguration("ix2", physical.NewIndex("lineitem", []string{"l_quantity"})),
		physical.NewConfiguration("ix3", physical.NewIndex("lineitem", []string{"l_orderkey", "l_quantity"})),
	}
	distinct := nStatements * len(configs)

	// Serial reference values, computed on a separate cache so the storm
	// cache's counters start clean.
	ref := NewCached(New(testCat))
	want := make(map[cacheKey]float64, distinct)
	for _, a := range analyses {
		for _, cfg := range configs {
			want[cacheKey{a: a, cfg: cfg.Fingerprint()}] = ref.Cost(a, cfg)
		}
	}

	// Pre-warm the even statements: those keys are hits for every worker.
	for i := 0; i < nStatements; i += 2 {
		for _, cfg := range configs {
			c.Cost(analyses[i], cfg)
		}
	}

	const (
		workers = 16
		rounds  = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger start points so goroutines collide on different
				// shards at different times.
				for s := 0; s < nStatements; s++ {
					a := analyses[(s+wkr)%nStatements]
					for _, cfg := range configs {
						got := c.Cost(a, cfg)
						if w := want[cacheKey{a: a, cfg: cfg.Fingerprint()}]; got != w {
							select {
							case errs <- fmt.Errorf("worker %d: cost %v, want %v", wkr, got, w):
							default:
							}
							return
						}
					}
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	total := int64(distinct/2) + int64(workers*rounds*distinct)
	hits, misses, entries := c.Stats()
	if hits+misses != total {
		t.Errorf("hits(%d) + misses(%d) = %d, want %d requests", hits, misses, hits+misses, total)
	}
	if entries != distinct {
		t.Errorf("entries = %d, want %d distinct keys", entries, distinct)
	}
	// In-flight dedupe: racing first-misses on a cold key wait for the
	// first one's value, so every distinct key misses — and pays an inner
	// call — exactly once.
	if misses != int64(distinct) {
		t.Errorf("misses = %d, want exactly %d (one per distinct key)", misses, distinct)
	}
	if calls := c.Inner().Calls(); calls != int64(distinct) {
		t.Errorf("inner optimizer charged %d calls, want %d", calls, distinct)
	}
}

// TestAtomicCacheStormChargesOnce races per-request Cost calls through the
// atom-sharing layer, where distinct configurations share singleton atoms:
// every distinct atom must be costed by the inner optimizer exactly once,
// as in a serial loop.
func TestAtomicCacheStormChargesOnce(t *testing.T) {
	analyses := make([]*sqlparse.Analysis, 8)
	for i := range analyses {
		analyses[i] = analyze(t, fmt.Sprintf(
			"SELECT l_quantity FROM lineitem WHERE l_orderkey = %d AND l_quantity < %d", i+1, i+10))
	}
	ixA := physical.NewIndex("lineitem", []string{"l_orderkey"})
	ixB := physical.NewIndex("lineitem", []string{"l_quantity"})
	ixC := physical.NewIndex("lineitem", []string{"l_orderkey", "l_quantity"})
	configs := []*physical.Configuration{
		physical.NewConfiguration("a", ixA),
		physical.NewConfiguration("ab", ixA, ixB),
		physical.NewConfiguration("bc", ixB, ixC),
		physical.NewConfiguration("abc", ixA, ixB, ixC),
	}
	ref := NewAtomicCache(New(testCat), 0)
	for _, a := range analyses {
		for _, cfg := range configs {
			ref.Cost(a, cfg)
		}
	}
	wantHits, wantMisses, _, _ := ref.Stats()
	wantCalls := ref.Inner().Calls()

	for trial := 0; trial < 20; trial++ {
		c := NewAtomicCache(New(testCat), 0)
		var wg sync.WaitGroup
		for _, a := range analyses {
			for _, cfg := range configs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.Cost(a, cfg)
				}()
			}
		}
		wg.Wait()
		hits, misses, _, _ := c.Stats()
		if hits != wantHits || misses != wantMisses {
			t.Fatalf("trial %d: hits/misses = %d/%d, want serial %d/%d", trial, hits, misses, wantHits, wantMisses)
		}
		if calls := c.Inner().Calls(); calls != wantCalls {
			t.Fatalf("trial %d: inner calls = %d, want serial %d", trial, calls, wantCalls)
		}
	}
}

// TestCacheShardClaimAllocFree pins the in-flight dedupe's cost on the
// miss path: claiming and releasing a key reuses the shard's pending set
// and allocates nothing.
func TestCacheShardClaimAllocFree(t *testing.T) {
	var sh cacheShard
	sh.init()
	key := cacheKey{cfg: "X"}
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := sh.claim(key); ok {
			t.Fatal("claim found a value in an empty shard")
		}
		sh.release(key)
	}); n != 0 {
		t.Errorf("claim+release allocates %.1f times per miss, want 0", n)
	}
}

// TestCacheShardPendingSlots drives one shard past maxPending in-flight
// misses: a claim on a pending key receives the owner's value, and a claim
// on a new key waits for a free slot instead of overflowing the set.
func TestCacheShardPendingSlots(t *testing.T) {
	var sh cacheShard
	sh.init()
	keys := make([]cacheKey, maxPending+1)
	for i := range keys {
		keys[i] = cacheKey{cfg: fmt.Sprint("cfg", i)}
	}
	for _, k := range keys[:maxPending] {
		if _, ok := sh.claim(k); ok {
			t.Fatalf("claim(%v) hit an empty shard", k)
		}
	}
	extra := make(chan bool)
	go func() {
		_, ok := sh.claim(keys[maxPending])
		extra <- ok
	}()
	waiter := make(chan float64)
	go func() {
		v, _ := sh.claim(keys[0])
		waiter <- v
	}()
	sh.fill(keys[0], 42)
	if v := <-waiter; v != 42 {
		t.Errorf("waiter on a pending key got %v, want the owner's 42", v)
	}
	if ok := <-extra; ok {
		t.Error("claim on a new key reported a hit, want ownership of the miss")
	}
	if sh.npending != maxPending {
		t.Errorf("npending = %d, want %d", sh.npending, maxPending)
	}
}
