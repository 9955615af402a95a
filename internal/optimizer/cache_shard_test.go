package optimizer

import (
	"fmt"
	"sync"
	"testing"

	"physdes/internal/par"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// TestCacheKeyPointerIdentity pins the cacheKey semantics the sharded
// rewrite must preserve: keys are (Analysis pointer, atom id) pairs, equal
// exactly when both components match. Two distinct parses of the same SQL
// text are distinct keys by design.
func TestCacheKeyPointerIdentity(t *testing.T) {
	a1 := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_orderkey = 5")
	a2 := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_orderkey = 5")
	if a1 == a2 {
		t.Fatal("parser returned the same *Analysis for two parses; pointer-identity keys need fresh allocations")
	}
	if (cacheKey{a: a1, atom: 1}) != (cacheKey{a: a1, atom: 1}) {
		t.Error("identical (pointer, atom id) keys must compare equal")
	}
	if (cacheKey{a: a1, atom: 1}) == (cacheKey{a: a2, atom: 1}) {
		t.Error("distinct parses of the same SQL must yield distinct keys")
	}
	if (cacheKey{a: a1, atom: 1}) == (cacheKey{a: a1, atom: 2}) {
		t.Error("distinct atom ids must yield distinct keys")
	}
	// Shard routing must be a pure in-range function of the key.
	var in atomInterner
	key := cacheKey{a: a1, atom: in.singleton(physical.NewIndex("lineitem", []string{"l_orderkey"})).id}
	if shardIndex(key) != shardIndex(key) {
		t.Error("shardIndex is not stable for equal keys")
	}
	if idx := shardIndex(key); idx < 0 || idx >= cacheShards {
		t.Errorf("shardIndex out of range: %d", idx)
	}
}

// TestCacheBatchAliasAccounting extends TestCacheKeyPointerIdentity to
// concurrent probes: probes aliasing the same (analysis, config) key
// within one batch fanned out over several workers must cost each
// distinct atom exactly once, with the aliases counted as hits — the same
// accounting a serial loop of Cost calls produces.
func TestCacheBatchAliasAccounting(t *testing.T) {
	const distinct = 16
	analyses := make([]*sqlparse.Analysis, distinct)
	for i := range analyses {
		analyses[i] = analyze(t, fmt.Sprintf(
			"SELECT l_quantity FROM lineitem WHERE l_orderkey = %d", i+1))
	}
	cfg := physical.NewConfiguration("ix",
		physical.NewIndex("lineitem", []string{"l_orderkey"}))
	// Each statement reads the empty atom and the index's singleton.
	const atoms = 2 * distinct

	// Two aliases of every key in one batch of 32 probes.
	reqs := make([]*sqlparse.Analysis, 0, 2*distinct)
	reqs = append(reqs, analyses...)
	reqs = append(reqs, analyses...)

	// Serial reference: a plain Cost loop on a fresh store.
	ref := NewAtomicCache(New(testCat), 0)
	want := make([]float64, len(reqs))
	for i, a := range reqs {
		want[i] = ref.Cost(a, cfg)
	}
	refHits, refMisses, _, _ := ref.Stats()

	for _, workers := range []int{2, 4, 8} {
		c := NewAtomicCache(New(testCat), 0)
		out := make([]float64, len(reqs))
		par.For(len(reqs), workers, func(i int) { out[i] = c.Cost(reqs[i], cfg) })
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", workers, i, out[i], want[i])
			}
		}
		hits, misses, _, entries := c.Stats()
		if hits != refHits || misses != refMisses {
			t.Errorf("workers=%d: hits/misses = %d/%d, want serial accounting %d/%d",
				workers, hits, misses, refHits, refMisses)
		}
		if misses != atoms || entries != atoms {
			t.Errorf("workers=%d: misses/entries = %d/%d, want %d (one per distinct atom)", workers, misses, entries, atoms)
		}
		if calls := c.Inner().Calls(); calls != atoms {
			t.Errorf("workers=%d: inner optimizer charged %d calls, want %d — aliased requests double-counted",
				workers, calls, atoms)
		}
	}
}

// TestCachedSameFingerprintSharesEntry is the flip side of pointer-identity
// statement keys: two distinct *Configuration values built from distinct
// but equal structures share a fingerprint, hence a store entry — whether
// the probe resolves to a singleton atom or to a width-bound fallback
// stored under the full configuration.
func TestCachedSameFingerprintSharesEntry(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sql      string
		maxWidth int
		build    func() *physical.Configuration
		// wantMisses and wantFallbacks are the first probe's costings; the
		// second probe must add none.
		wantMisses, wantFallbacks int64
	}{
		{
			name:     "singleton",
			sql:      "SELECT l_quantity FROM lineitem WHERE l_orderkey = 5",
			maxWidth: 0,
			build: func() *physical.Configuration {
				return physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_orderkey"}))
			},
			wantMisses: 2, // the empty atom and the index's singleton
		},
		{
			name:     "fallback",
			sql:      "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate < 200",
			maxWidth: 1,
			build: func() *physical.Configuration {
				return physical.NewConfiguration("wide",
					physical.NewIndex("orders", []string{"o_orderkey"}),
					physical.NewIndex("lineitem", []string{"l_orderkey"}))
			},
			wantFallbacks: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewAtomicCache(New(testCat), tc.maxWidth)
			a := analyze(t, tc.sql)
			cfgA, cfgB := tc.build(), tc.build()
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
			costings := tc.wantMisses + tc.wantFallbacks
			hits, misses, fallbacks, entries := c.Stats()
			if misses != tc.wantMisses || fallbacks != tc.wantFallbacks || hits != costings || entries != int(costings) {
				t.Errorf("hits/misses/fallbacks/entries = %d/%d/%d/%d, want %d/%d/%d/%d",
					hits, misses, fallbacks, entries, costings, tc.wantMisses, tc.wantFallbacks, costings)
			}
			if calls := c.Inner().Calls(); calls != costings {
				t.Errorf("inner calls = %d, want %d", calls, costings)
			}
		})
	}
}

// TestCachedShardedStorm runs many workers over the atom store's shards
// with staggered start points, so goroutines collide on different shards
// at different times. Half the statement grid is pre-warmed. Every value
// must equal the serial reference, and the hit/miss accounting, stored
// entries and inner calls must equal a serial loop making the same probes:
// each distinct atom is costed once however many workers race for it.
func TestCachedShardedStorm(t *testing.T) {
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
	const (
		workers = 16
		rounds  = 8
	)
	// prewarm costs the even statements serially: those are hits for
	// every worker.
	prewarm := func(c *AtomicCache) {
		for i := 0; i < nStatements; i += 2 {
			for _, cfg := range configs {
				c.Cost(analyses[i], cfg)
			}
		}
	}

	// The serial reference makes the storm's probes one after another.
	ref := NewAtomicCache(New(testCat), 0)
	prewarm(ref)
	want := make([][]float64, nStatements)
	for i, a := range analyses {
		for _, cfg := range configs {
			want[i] = append(want[i], ref.Cost(a, cfg))
		}
	}
	for p := 1; p < workers*rounds; p++ {
		for _, a := range analyses {
			for _, cfg := range configs {
				ref.Cost(a, cfg)
			}
		}
	}
	wantHits, wantMisses, _, wantEntries := ref.Stats()
	wantCalls := ref.Inner().Calls()

	c := NewAtomicCache(New(testCat), 0)
	prewarm(c)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for s := 0; s < nStatements; s++ {
					i := (s + wkr) % nStatements
					for j, cfg := range configs {
						if got := c.Cost(analyses[i], cfg); got != want[i][j] {
							select {
							case errs <- fmt.Errorf("worker %d: statement %d config %s: cost %v, want %v", wkr, i, cfg.Name(), got, want[i][j]):
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

	hits, misses, _, entries := c.Stats()
	if hits != wantHits || misses != wantMisses {
		t.Errorf("hits/misses = %d/%d, want serial %d/%d", hits, misses, wantHits, wantMisses)
	}
	if entries != wantEntries {
		t.Errorf("entries = %d, want serial %d", entries, wantEntries)
	}
	if calls := c.Inner().Calls(); calls != wantCalls {
		t.Errorf("inner optimizer charged %d calls, want serial %d", calls, wantCalls)
	}
}

// TestAtomicCacheStormChargesOnce hammers the atom store from many
// goroutines with a mixed hit/miss workload, where distinct configurations
// share singleton atoms: half the statement grid is pre-warmed (guaranteed
// hits), the other half races to fill. Every raced value must equal the
// serial reference, every distinct atom must be costed by the inner
// optimizer exactly once, and the accounting and the stored entries must
// equal a serial loop's. Under -race this doubles as the store's data-race
// exercise.
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
	// prewarm costs the even statements serially.
	prewarm := func(c *AtomicCache) {
		for i := 0; i < len(analyses); i += 2 {
			for _, cfg := range configs {
				c.Cost(analyses[i], cfg)
			}
		}
	}
	const racers = 2 // goroutines per (statement, configuration) pair
	// The serial reference probes each pair racers times, as the storm does.
	ref := NewAtomicCache(New(testCat), 0)
	prewarm(ref)
	want := make([][]float64, len(analyses))
	for i, a := range analyses {
		for _, cfg := range configs {
			want[i] = append(want[i], ref.Cost(a, cfg))
			for r := 1; r < racers; r++ {
				ref.Cost(a, cfg)
			}
		}
	}
	wantHits, wantMisses, _, wantEntries := ref.Stats()
	wantCalls := ref.Inner().Calls()

	for trial := 0; trial < 20; trial++ {
		c := NewAtomicCache(New(testCat), 0)
		prewarm(c)
		var wg sync.WaitGroup
		errs := make(chan error, len(analyses)*len(configs)*racers)
		for i, a := range analyses {
			for j, cfg := range configs {
				for r := 0; r < racers; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if got := c.Cost(a, cfg); got != want[i][j] {
							errs <- fmt.Errorf("statement %d config %s: cost %v, want %v", i, cfg.Name(), got, want[i][j])
						}
					}()
				}
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("trial %d: %v", trial, err)
		}
		hits, misses, _, entries := c.Stats()
		if hits != wantHits || misses != wantMisses {
			t.Fatalf("trial %d: hits/misses = %d/%d, want serial %d/%d", trial, hits, misses, wantHits, wantMisses)
		}
		if entries != wantEntries {
			t.Fatalf("trial %d: entries = %d, want serial %d", trial, entries, wantEntries)
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
	key := cacheKey{atom: 1}
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
		keys[i] = cacheKey{atom: uint32(i)}
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
