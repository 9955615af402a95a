package optimizer_test

import (
	"testing"

	"physdes/internal/obs"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// TestAtomicCacheStatsAndMetrics pins the atom store's accounting surface
// on the serial path: Stats and the registry counters must agree call for
// call, the width bound must be reported, Reset must zero the store, and
// detaching the registry must stop the export without touching costing.
func TestAtomicCacheStatsAndMetrics(t *testing.T) {
	ac := optimizer.NewAtomicCache(optimizer.New(atomsCat), 0)
	if ac.MaxWidth() != optimizer.DefaultMaxAtomWidth {
		t.Fatalf("MaxWidth() = %d, want default %d", ac.MaxWidth(), optimizer.DefaultMaxAtomWidth)
	}
	r := obs.NewRegistry()
	ac.SetMetrics(r)

	a := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 37")
	cfg := physical.NewConfiguration("c",
		physical.NewIndex("lineitem", []string{"l_partkey"}),
		physical.NewIndex("lineitem", []string{"l_shipdate"}, "l_quantity", "l_partkey"),
	)
	first := ac.Cost(a, cfg)  // empty atom + 2 singletons: 3 misses
	second := ac.Cost(a, cfg) // same plan again: 3 hits
	if first != second {
		t.Fatalf("repeated Cost diverged: %v vs %v", first, second)
	}
	if want := optimizer.New(atomsCat).Cost(a, cfg); first != want {
		t.Fatalf("atom-reassembled cost %v != direct cost %v", first, want)
	}

	hits, misses, fallbacks, entries := ac.Stats()
	if hits != 3 || misses != 3 || fallbacks != 0 || entries != 3 {
		t.Fatalf("Stats() = (%d, %d, %d, %d), want (3, 3, 0, 3)", hits, misses, fallbacks, entries)
	}
	snap := r.Snapshot()
	if got := snap.Counters["optimizer_atom_hits_total"]; got != hits {
		t.Errorf("optimizer_atom_hits_total = %d, want %d", got, hits)
	}
	if got := snap.Counters["optimizer_atoms_total"]; got != misses {
		t.Errorf("optimizer_atoms_total = %d, want %d", got, misses)
	}
	if got := snap.Histograms["optimizer_atom_cost_seconds"].Count; got != misses {
		t.Errorf("optimizer_atom_cost_seconds count = %d, want one observation per atom costing (%d)", got, misses)
	}

	// Reset clears the store and its counters; the registry keeps its
	// monotonic totals.
	ac.Reset()
	if hits, misses, fallbacks, entries = ac.Stats(); hits != 0 || misses != 0 || fallbacks != 0 || entries != 0 {
		t.Fatalf("Stats() after Reset = (%d, %d, %d, %d), want zeros", hits, misses, fallbacks, entries)
	}
	if got := ac.Cost(a, cfg); got != first {
		t.Fatalf("cost after Reset diverged: %v vs %v", got, first)
	}

	// Detaching stops the export: further costings move Stats but not the
	// registry.
	ac.SetMetrics(nil)
	before := r.Snapshot().Counters["optimizer_atoms_total"]
	ac.Reset()
	ac.Cost(a, cfg)
	if after := r.Snapshot().Counters["optimizer_atoms_total"]; after != before {
		t.Errorf("detached registry moved: optimizer_atoms_total %d -> %d", before, after)
	}
}

// TestAtomicCacheWidthFallbackSerial pins the serial fallback path: a
// statement whose projection exceeds the width bound pays one direct call,
// is counted as a fallback, is stored under its full configuration, and
// returns the direct cost exactly.
func TestAtomicCacheWidthFallbackSerial(t *testing.T) {
	ac := optimizer.NewAtomicCache(optimizer.New(atomsCat), 2)
	ac.SetMetrics(obs.NewRegistry())
	if ac.MaxWidth() != 2 {
		t.Fatalf("MaxWidth() = %d, want 2", ac.MaxWidth())
	}
	a := analyze(t, "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate < 200")
	cfg := physical.NewConfiguration("c",
		physical.NewIndex("orders", []string{"o_orderdate"}),
		physical.NewIndex("orders", []string{"o_orderkey"}),
		physical.NewIndex("lineitem", []string{"l_orderkey"}),
	)
	got := ac.Cost(a, cfg)
	if want := optimizer.New(atomsCat).Cost(a, cfg); got != want {
		t.Fatalf("fallback cost %v != direct cost %v", got, want)
	}
	hits, misses, fallbacks, entries := ac.Stats()
	if fallbacks != 1 || misses != 0 || hits != 0 || entries != 1 {
		t.Errorf("Stats() = (%d, %d, %d, %d), want fallback-only (0, 0, 1, 1)", hits, misses, fallbacks, entries)
	}
}

// TestAtomicCacheFallbackMemoized pins the fallback memo: costing a
// width-fallback pair twice — serially, or many times over concurrent
// workers — charges one inner call, and the repeats count as store hits.
func TestAtomicCacheFallbackMemoized(t *testing.T) {
	a := analyze(t, "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate < 200")
	cfg := wideOrdersConfig()
	want := optimizer.New(atomsCat).Cost(a, cfg)

	serial := optimizer.NewAtomicCache(optimizer.New(atomsCat), 0)
	for i := 0; i < 2; i++ {
		if got := serial.Cost(a, cfg); got != want {
			t.Fatalf("probe %d: fallback cost %v != direct cost %v", i, got, want)
		}
	}
	if calls := serial.Inner().Calls(); calls != 1 {
		t.Errorf("serial: two fallback probes charged %d inner calls, want 1", calls)
	}
	if hits, misses, fallbacks, _ := serial.Stats(); hits != 1 || misses != 0 || fallbacks != 1 {
		t.Errorf("serial: Stats() hits/misses/fallbacks = %d/%d/%d, want 1/0/1", hits, misses, fallbacks)
	}

	// The pair sixteen times over four workers.
	reqs := make([]probe, 16)
	for i := range reqs {
		reqs[i] = probe{Analysis: a, Config: cfg}
	}
	concurrent := optimizer.NewAtomicCache(optimizer.New(atomsCat), 0)
	for i, got := range costConcurrently(concurrent, reqs, 4) {
		if got != want {
			t.Fatalf("concurrent probe %d: %v != direct cost %v", i, got, want)
		}
	}
	if calls := concurrent.Inner().Calls(); calls != 1 {
		t.Errorf("concurrent: %d fallback probes charged %d inner calls, want 1", len(reqs), calls)
	}
}

// wideOrdersConfig builds a configuration whose projection on the
// orders⋈lineitem join exceeds DefaultMaxAtomWidth (9 lead-o_orderdate
// variants + 9 lead-o_orderkey variants = 18 relevant indexes), forcing
// the width-bound fallback.
func wideOrdersConfig() *physical.Configuration {
	seconds := []string{
		"o_custkey", "o_orderstatus", "o_totalprice", "o_orderpriority",
		"o_clerk", "o_shippriority", "o_comment",
	}
	ixs := []physical.Structure{
		physical.NewIndex("orders", []string{"o_orderdate"}),
		physical.NewIndex("orders", []string{"o_orderkey"}),
		physical.NewIndex("orders", []string{"o_orderdate", "o_orderkey"}),
		physical.NewIndex("orders", []string{"o_orderkey", "o_orderdate"}),
	}
	for _, s := range seconds {
		ixs = append(ixs,
			physical.NewIndex("orders", []string{"o_orderdate", s}),
			physical.NewIndex("orders", []string{"o_orderkey", s}),
		)
	}
	return physical.NewConfiguration("wide", ixs...)
}

// TestCachedAtomicBatchMetrics drives the atom store from concurrent
// workers with a registry attached and a width-bound fallback in the mix:
// every value must match direct costing, the fallback must be billed as a
// direct call, the registry counters must equal Stats — which must in
// turn equal a fresh store evaluating the same probes serially — and the
// latency histogram must hold one observation per paid atom.
func TestCachedAtomicBatchMetrics(t *testing.T) {
	analyses := []*sqlparse.Analysis{
		analyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 37"),
		analyze(t, "SELECT o_totalprice FROM orders WHERE o_orderdate < 180"),
		analyze(t, "SELECT l_extendedprice FROM lineitem WHERE l_shipdate < 90"),
		analyze(t, "SELECT o_clerk FROM orders WHERE o_custkey = 12"),
	}
	wide := analyze(t, "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate < 200")

	shared1 := physical.NewIndex("lineitem", []string{"l_partkey"})
	shared2 := physical.NewIndex("orders", []string{"o_orderdate"})
	shared3 := physical.NewIndex("lineitem", []string{"l_shipdate"})
	configs := []*physical.Configuration{
		physical.NewConfiguration("c1", shared1, shared2),
		physical.NewConfiguration("c2", shared1, shared2, physical.NewIndex("orders", []string{"o_custkey"})),
		physical.NewConfiguration("c3", shared2, shared3),
		physical.NewConfiguration("c4", shared1, shared3),
	}
	wideCfg := wideOrdersConfig()

	// 4×4 overlapping cross product + the wide fallback + a repeated pair.
	var reqs []probe
	for _, a := range analyses {
		for _, cfg := range configs {
			reqs = append(reqs, probe{Analysis: a, Config: cfg})
		}
	}
	reqs = append(reqs,
		probe{Analysis: wide, Config: wideCfg},
		probe{Analysis: analyses[0], Config: configs[0]}, // repeated pair
	)

	r := obs.NewRegistry()
	c := optimizer.NewAtomicCache(optimizer.New(atomsCat), 0)
	c.SetMetrics(r)
	got := costConcurrently(c, reqs, 4)

	direct := optimizer.New(atomsCat)
	for i, req := range reqs {
		if want := direct.Cost(req.Analysis, req.Config); got[i] != want {
			t.Fatalf("probe %d: concurrent cost %v != direct %v", i, got[i], want)
		}
	}

	hits, misses, fallbacks, entries := c.Stats()
	if fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1 (the width-%d projection)", fallbacks, wideCfg.NumStructures())
	}
	if misses <= 0 || hits <= 0 || entries != int(misses+fallbacks) {
		t.Errorf("Stats() = (%d, %d, %d, %d): want positive hits/misses and entries == misses + fallbacks",
			hits, misses, fallbacks, entries)
	}
	snap := r.Snapshot()
	if got := snap.Counters["optimizer_atom_hits_total"]; got != hits {
		t.Errorf("optimizer_atom_hits_total = %d, want %d", got, hits)
	}
	if got := snap.Counters["optimizer_atoms_total"]; got != misses {
		t.Errorf("optimizer_atoms_total = %d, want %d", got, misses)
	}
	if got := snap.Histograms["optimizer_atom_cost_seconds"].Count; got != misses {
		t.Errorf("optimizer_atom_cost_seconds count = %d, want %d (one per paid atom)", got, misses)
	}

	// Accounting parity with the serial path: a fresh store fed the same
	// requests one by one must land on identical counters.
	s := optimizer.NewAtomicCache(optimizer.New(atomsCat), 0)
	for _, req := range reqs {
		s.Cost(req.Analysis, req.Config)
	}
	sh, sm, sf, se := s.Stats()
	if sh != hits || sm != misses || sf != fallbacks || se != entries {
		t.Errorf("concurrent accounting (%d, %d, %d, %d) != serial accounting (%d, %d, %d, %d)",
			hits, misses, fallbacks, entries, sh, sm, sf, se)
	}
	if bi, si := c.Inner().Calls(), s.Inner().Calls(); bi != si {
		t.Errorf("concurrent probes charged %d inner calls, serial charged %d; must match", bi, si)
	}
}
