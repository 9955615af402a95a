package optimizer

import (
	"testing"

	"physdes/internal/physical"
)

// TestCachedOptimizer pins the atom store's memo semantics on the serial
// path: a repeated probe is served from the store and charges no inner
// call, a configuration whose atoms are already stored costs nothing, and
// a distinct parse of the same SQL text is a distinct statement key.
func TestCachedOptimizer(t *testing.T) {
	inner := New(testCat)
	c := NewAtomicCache(inner)
	a := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_orderkey = 5")
	cfg := physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_orderkey"}))
	check := func(step string, wantHits, wantMisses int64, wantEntries int) {
		t.Helper()
		hits, misses, entries := c.Stats()
		if hits != wantHits || misses != wantMisses || entries != wantEntries {
			t.Errorf("%s: hits/misses/entries = %d/%d/%d, want %d/%d/%d",
				step, hits, misses, entries, wantHits, wantMisses, wantEntries)
		}
		// Only misses reach the optimizer.
		if inner.Calls() != wantMisses {
			t.Errorf("%s: inner calls = %d, want %d", step, inner.Calls(), wantMisses)
		}
	}

	// A single-table SELECT decomposes into the empty atom plus one
	// singleton per relevant index.
	v1 := c.Cost(a, cfg)
	v2 := c.Cost(a, cfg)
	if v1 != v2 {
		t.Fatal("cache returned different values")
	}
	if want := New(testCat).Cost(a, cfg); v1 != want {
		t.Fatalf("cached cost %v != direct cost %v", v1, want)
	}
	check("repeat", 2, 2, 2)
	// The empty configuration is the empty atom alone, already stored.
	c.Cost(a, emptyCfg())
	check("empty config", 3, 2, 2)
	// Same statement text but a different Analysis value: statement keys
	// are pointer identities, so this is a (sound, conservative) miss.
	a2 := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_orderkey = 5")
	c.Cost(a2, cfg)
	check("second parse", 3, 4, 4)
}
