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
// call, and detaching the registry must stop the export without touching
// costing.
func TestAtomicCacheStatsAndMetrics(t *testing.T) {
	ac := optimizer.NewAtomicCache(optimizer.New(atomsCat))
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

	hits, misses, entries := ac.Stats()
	if hits != 3 || misses != 3 || entries != 3 {
		t.Fatalf("Stats() = (%d, %d, %d), want (3, 3, 3)", hits, misses, entries)
	}
	snap := r.Snapshot()
	if got := snap.Counters["optimizer_atom_hits_total"]; got != hits {
		t.Errorf("optimizer_atom_hits_total = %d, want %d", got, hits)
	}
	if got := snap.Counters["optimizer_atoms_total"]; got != misses {
		t.Errorf("optimizer_atoms_total = %d, want %d", got, misses)
	}

	// Detaching stops the export: further hits and misses move Stats but
	// not the registry.
	ac.SetMetrics(nil)
	ac.Cost(a, cfg)
	ac.Cost(analyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 37"), cfg)
	if h, m, _ := ac.Stats(); h != hits+3 || m != misses+3 {
		t.Fatalf("Stats() hits/misses after detaching = %d/%d, want %d/%d", h, m, hits+3, misses+3)
	}
	after := r.Snapshot()
	for _, name := range []string{"optimizer_atom_hits_total", "optimizer_atoms_total"} {
		if after.Counters[name] != snap.Counters[name] {
			t.Errorf("detached registry moved: %s %d -> %d", name, snap.Counters[name], after.Counters[name])
		}
	}
}

// TestWideProjectionSharesAtom pins projections of any width as ordinary
// atoms: two configurations holding the same 18 indexes relevant to a
// join, and differing only in an index on a table the join does not read,
// project onto one atom. The first probe pays one inner call, the second
// is a store hit, and both return the direct cost.
func TestWideProjectionSharesAtom(t *testing.T) {
	a := analyze(t, "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate < 200")
	base := wideOrdersConfig().Structures()
	cfgA := physical.NewConfiguration("a", append(base[:len(base):len(base)], physical.NewIndex("customer", []string{"c_custkey"}))...)
	cfgB := physical.NewConfiguration("b", append(base[:len(base):len(base)], physical.NewIndex("customer", []string{"c_nationkey"}))...)

	r := obs.NewRegistry()
	ac := optimizer.NewAtomicCache(optimizer.New(atomsCat))
	ac.SetMetrics(r)
	direct := optimizer.New(atomsCat)
	for _, cfg := range []*physical.Configuration{cfgA, cfgB} {
		if got, want := ac.Cost(a, cfg), direct.Cost(a, cfg); got != want {
			t.Fatalf("%s: atomic cost %v, direct %v", cfg.Name(), got, want)
		}
	}
	if calls := ac.Calls(); calls != 1 {
		t.Errorf("two configurations with one wide projection paid %d inner calls, want 1", calls)
	}
	snap := r.Snapshot()
	if atoms, hits := snap.Counters["optimizer_atoms_total"], snap.Counters["optimizer_atom_hits_total"]; atoms != 1 || hits != 1 {
		t.Errorf("atoms/hits = %d/%d, want 1/1 (one shared projection atom)", atoms, hits)
	}
}

// wideOrdersConfig builds a configuration whose projection on the
// orders⋈lineitem join holds 18 indexes (9 lead-o_orderdate variants + 9
// lead-o_orderkey variants), all relevant to the join.
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
// workers with a registry attached and an 18-index projection in the mix:
// every value must match direct costing, the registry counters must equal
// Stats — which must in turn equal a fresh store evaluating the same
// probes serially — and the inner optimizer's latency histogram must hold
// one observation per paid atom.
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

	// 4×4 overlapping cross product + the wide projection + a repeated pair.
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
	inner := optimizer.New(atomsCat)
	inner.SetMetrics(r)
	c := optimizer.NewAtomicCache(inner)
	c.SetMetrics(r)
	got := costConcurrently(c, reqs, 4)

	direct := optimizer.New(atomsCat)
	for i, req := range reqs {
		if want := direct.Cost(req.Analysis, req.Config); got[i] != want {
			t.Fatalf("probe %d: concurrent cost %v != direct %v", i, got[i], want)
		}
	}

	hits, misses, entries := c.Stats()
	if misses <= 0 || hits <= 0 || entries != int(misses) {
		t.Errorf("Stats() = (%d, %d, %d): want positive hits/misses and entries == misses",
			hits, misses, entries)
	}
	snap := r.Snapshot()
	if got := snap.Counters["optimizer_atom_hits_total"]; got != hits {
		t.Errorf("optimizer_atom_hits_total = %d, want %d", got, hits)
	}
	if got := snap.Counters["optimizer_atoms_total"]; got != misses {
		t.Errorf("optimizer_atoms_total = %d, want %d", got, misses)
	}
	if got := snap.Histograms["optimizer_cost_seconds"].Count; got != misses {
		t.Errorf("optimizer_cost_seconds count = %d, want %d (one per paid atom)", got, misses)
	}

	// Accounting parity with the serial path: a fresh store fed the same
	// requests one by one must land on identical counters.
	s := optimizer.NewAtomicCache(optimizer.New(atomsCat))
	for _, req := range reqs {
		s.Cost(req.Analysis, req.Config)
	}
	sh, sm, se := s.Stats()
	if sh != hits || sm != misses || se != entries {
		t.Errorf("concurrent accounting (%d, %d, %d) != serial accounting (%d, %d, %d)",
			hits, misses, entries, sh, sm, se)
	}
	if bi, si := c.Calls(), s.Calls(); bi != si {
		t.Errorf("concurrent probes charged %d inner calls, serial charged %d; must match", bi, si)
	}
}
