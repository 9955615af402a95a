package optimizer

import (
	"fmt"
	"testing"
	"testing/quick"

	"physdes/internal/catalog"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
)

var testCat = catalog.TPCD(0.01)

func analyze(t *testing.T, src string) *sqlparse.Analysis {
	t.Helper()
	st, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	a, err := sqlparse.Analyze(st, testCat.Resolve)
	if err != nil {
		t.Fatalf("Analyze(%q): %v", src, err)
	}
	return a
}

func emptyCfg() *physical.Configuration { return physical.NewConfiguration("empty") }

func TestCostCounterAndDeterminism(t *testing.T) {
	o := New(testCat)
	a := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_shipdate < 100")
	cfg := emptyCfg()
	c1 := o.Cost(a, cfg)
	c2 := o.Cost(a, cfg)
	if c1 != c2 {
		t.Errorf("non-deterministic cost: %v vs %v", c1, c2)
	}
	if o.Calls() != 2 {
		t.Errorf("Calls = %d, want 2", o.Calls())
	}
	o.ResetCalls()
	if o.Calls() != 0 {
		t.Error("ResetCalls failed")
	}
}

func TestSelectiveIndexBeatsHeapScan(t *testing.T) {
	o := New(testCat)
	a := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 1500")
	heap := o.Cost(a, emptyCfg())
	withIx := o.Cost(a, physical.NewConfiguration("ix",
		physical.NewIndex("lineitem", []string{"l_partkey"})))
	if withIx >= heap {
		t.Errorf("index did not help: heap=%v withIx=%v", heap, withIx)
	}
	if withIx < heap/1000 && heap > 1 {
		// Sanity: it should help a lot, but stay positive.
		t.Logf("index speedup %.0fx", heap/withIx)
	}
	if withIx <= 0 {
		t.Error("cost must stay positive")
	}
}

func TestCoveringIndexBeatsFetchingIndex(t *testing.T) {
	o := New(testCat)
	a := analyze(t, "SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_suppkey = 40")
	plain := o.Cost(a, physical.NewConfiguration("p",
		physical.NewIndex("lineitem", []string{"l_suppkey"})))
	covering := o.Cost(a, physical.NewConfiguration("c",
		physical.NewIndex("lineitem", []string{"l_suppkey"}, "l_quantity", "l_extendedprice")))
	if covering >= plain {
		t.Errorf("covering=%v should beat fetching=%v", covering, plain)
	}
}

func TestCompositeIndexSeekUsesPrefix(t *testing.T) {
	o := New(testCat)
	a := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_suppkey = 40 AND l_shipdate BETWEEN 100 AND 110")
	single := o.Cost(a, physical.NewConfiguration("s",
		physical.NewIndex("lineitem", []string{"l_suppkey"})))
	composite := o.Cost(a, physical.NewConfiguration("c",
		physical.NewIndex("lineitem", []string{"l_suppkey", "l_shipdate"})))
	if composite >= single {
		t.Errorf("composite=%v should beat single=%v", composite, single)
	}
}

func TestHotValueCostsMoreThanColdValue(t *testing.T) {
	// Zipf skew: rank 1 of l_partkey is vastly more frequent than a cold
	// rank, so seeking it touches more rows.
	o := New(testCat)
	cfg := physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_partkey"}))
	hot := o.Cost(analyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 1"), cfg)
	cold := o.Cost(analyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 1999"), cfg)
	if hot <= cold {
		t.Errorf("hot=%v should cost more than cold=%v", hot, cold)
	}
}

func TestJoinQueryCostsMoreThanLookup(t *testing.T) {
	// "multi-join queries will be typically more expensive than
	// single-value lookups, no matter what the physical design" — the
	// property Delta Sampling leans on.
	o := New(testCat)
	join := analyze(t, "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey")
	lookup := analyze(t, "SELECT c_name FROM customer WHERE c_custkey = 42")
	for _, cfg := range []*physical.Configuration{
		emptyCfg(),
		physical.NewConfiguration("rich",
			physical.NewIndex("orders", []string{"o_orderkey"}),
			physical.NewIndex("lineitem", []string{"l_orderkey"}),
			physical.NewIndex("customer", []string{"c_custkey"})),
	} {
		if jc, lc := o.Cost(join, cfg), o.Cost(lookup, cfg); jc <= lc {
			t.Errorf("cfg %s: join=%v should exceed lookup=%v", cfg.Name(), jc, lc)
		}
	}
}

func TestIndexNestedLoopHelpsJoin(t *testing.T) {
	o := New(testCat)
	a := analyze(t, "SELECT o_orderdate FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate = 3")
	plain := o.Cost(a, physical.NewConfiguration("p",
		physical.NewIndex("orders", []string{"o_orderdate"})))
	withNL := o.Cost(a, physical.NewConfiguration("nl",
		physical.NewIndex("orders", []string{"o_orderdate"}),
		physical.NewIndex("lineitem", []string{"l_orderkey"})))
	if withNL >= plain {
		t.Errorf("index NL join did not help: plain=%v withNL=%v", plain, withNL)
	}
}

func TestViewMatchingHelpsJoin(t *testing.T) {
	o := New(testCat)
	a := analyze(t, "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND l_shipdate < 50")
	j := a.Joins[0]
	v := physical.NewView([]string{"orders", "lineitem"}, []sqlparse.JoinPredicate{j},
		[]sqlparse.TableColumn{
			{Table: "orders", Column: "o_orderdate"},
			{Table: "orders", Column: "o_orderkey"},
			{Table: "lineitem", Column: "l_extendedprice"},
			{Table: "lineitem", Column: "l_orderkey"},
			{Table: "lineitem", Column: "l_shipdate"},
		}, nil)
	without := o.Cost(a, emptyCfg())
	with := o.Cost(a, physical.NewConfiguration("v", v))
	if with >= without {
		t.Errorf("view did not help: without=%v with=%v", without, with)
	}
}

func TestViewNotMatchedWhenColumnsMissing(t *testing.T) {
	o := New(testCat)
	a := analyze(t, "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey")
	j := a.Joins[0]
	// View misses l_extendedprice: cannot answer the query.
	v := physical.NewView([]string{"orders", "lineitem"}, []sqlparse.JoinPredicate{j},
		[]sqlparse.TableColumn{
			{Table: "orders", Column: "o_orderdate"},
			{Table: "orders", Column: "o_orderkey"},
			{Table: "lineitem", Column: "l_orderkey"},
		}, nil)
	without := o.Cost(a, emptyCfg())
	with := o.Cost(a, physical.NewConfiguration("v", v))
	if with != without {
		t.Errorf("non-covering view changed cost: %v vs %v", with, without)
	}
}

func TestOrderByIndexEliminatesSort(t *testing.T) {
	o := New(testCat)
	a := analyze(t, "SELECT l_shipdate, l_quantity, l_extendedprice FROM lineitem ORDER BY l_shipdate")
	unsorted := o.Cost(a, emptyCfg())
	sorted := o.Cost(a, physical.NewConfiguration("s",
		physical.NewIndex("lineitem", []string{"l_shipdate"}, "l_quantity", "l_extendedprice")))
	if sorted >= unsorted {
		t.Errorf("covering ordered index should beat heap+sort: %v vs %v", sorted, unsorted)
	}
}

func TestUpdateCostGrowsWithSelectivity(t *testing.T) {
	// "the cost of a pure update statement grows with its selectivity" —
	// the monotonicity Section 6.1's template bounding rests on.
	o := New(testCat)
	cfg := physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_quantity"}))
	narrow := o.Cost(analyze(t, "UPDATE TOP(10) lineitem SET l_quantity = 0"), cfg)
	wide := o.Cost(analyze(t, "UPDATE TOP(10000) lineitem SET l_quantity = 0"), cfg)
	if wide <= narrow {
		t.Errorf("wide update %v should exceed narrow %v", wide, narrow)
	}
}

func TestIndexMaintenanceChargedOnlyWhenTouched(t *testing.T) {
	o := New(testCat)
	upd := analyze(t, "UPDATE lineitem SET l_comment = 1 WHERE l_orderkey = 5")
	seekIx := physical.NewIndex("lineitem", []string{"l_orderkey"})
	touchedIx := physical.NewIndex("lineitem", []string{"l_comment"})
	unrelatedIx := physical.NewIndex("lineitem", []string{"l_tax"})
	base := o.Cost(upd, physical.NewConfiguration("b", seekIx))
	withTouched := o.Cost(upd, physical.NewConfiguration("t", seekIx, touchedIx))
	withUnrelated := o.Cost(upd, physical.NewConfiguration("u", seekIx, unrelatedIx))
	if withTouched <= base {
		t.Errorf("maintaining a touched index must cost: %v vs %v", withTouched, base)
	}
	if withUnrelated != base {
		t.Errorf("unrelated index should be free for UPDATE: %v vs %v", withUnrelated, base)
	}
}

func TestDeleteMaintainsAllIndexes(t *testing.T) {
	o := New(testCat)
	del := analyze(t, "DELETE FROM lineitem WHERE l_orderkey = 5")
	seekIx := physical.NewIndex("lineitem", []string{"l_orderkey"})
	otherIx := physical.NewIndex("lineitem", []string{"l_tax"})
	base := o.Cost(del, physical.NewConfiguration("b", seekIx))
	with := o.Cost(del, physical.NewConfiguration("w", seekIx, otherIx))
	if with <= base {
		t.Errorf("DELETE must maintain every index: %v vs %v", with, base)
	}
}

func TestInsertChargesStructures(t *testing.T) {
	o := New(testCat)
	ins := analyze(t, "INSERT INTO lineitem (l_orderkey, l_quantity) VALUES (1, 2)")
	empty := o.Cost(ins, emptyCfg())
	heavy := o.Cost(ins, physical.NewConfiguration("h",
		physical.NewIndex("lineitem", []string{"l_orderkey"}),
		physical.NewIndex("lineitem", []string{"l_quantity"}),
		physical.NewView([]string{"lineitem", "orders"}, nil, nil, nil)))
	if heavy <= empty {
		t.Errorf("insert into indexed table must cost more: %v vs %v", heavy, empty)
	}
}

// TestWellBehavedMonotonicity is the load-bearing property of Section 6.1:
// "adding an index or view to the base configuration can only improve the
// optimizer estimated cost of a SELECT-query".
func TestWellBehavedMonotonicity(t *testing.T) {
	o := New(testCat)
	queries := []string{
		"SELECT l_quantity FROM lineitem WHERE l_partkey = 37",
		"SELECT l_quantity, l_discount FROM lineitem WHERE l_shipdate BETWEEN 100 AND 300 AND l_quantity = 8",
		"SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate < 200",
		"SELECT c_name, o_totalprice FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND c_mktsegment = 'SEG#1' ORDER BY o_totalprice",
		"SELECT s_name, ps_availqty FROM supplier s, partsupp ps WHERE s.s_suppkey = ps.ps_suppkey AND ps_availqty < 50",
	}
	var analyses []*sqlparse.Analysis
	for _, q := range queries {
		analyses = append(analyses, analyze(t, q))
	}
	cands := physical.EnumerateCandidates(testCat, analyses, physical.CandidateOptions{Covering: true, Views: true})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}

	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		// Random base configuration.
		var base []physical.Structure
		for _, c := range cands {
			if rng.Float64() < 0.3 {
				base = append(base, c)
			}
		}
		cfg := physical.NewConfiguration("base", base...)
		extra := cands[rng.Intn(len(cands))]
		bigger := cfg.With("bigger", extra)
		a := analyses[rng.Intn(len(analyses))]
		c1 := o.Cost(a, cfg)
		c2 := o.Cost(a, bigger)
		if c2 > c1*(1+1e-9) {
			t.Logf("monotonicity violated: %v -> %v adding %s for query %v", c1, c2, extra.ID(), a.Tables)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCostsPositiveProperty(t *testing.T) {
	o := New(testCat)
	srcs := []string{
		"SELECT l_quantity FROM lineitem WHERE l_partkey = %d",
		"SELECT l_quantity FROM lineitem WHERE l_shipdate < %d",
		"UPDATE lineitem SET l_quantity = 1 WHERE l_partkey = %d",
		"DELETE FROM lineitem WHERE l_orderkey = %d",
	}
	cfg := physical.NewConfiguration("ix",
		physical.NewIndex("lineitem", []string{"l_partkey"}),
		physical.NewIndex("lineitem", []string{"l_orderkey"}))
	for _, src := range srcs {
		for _, v := range []int{1, 100, 1999} {
			a := analyze(t, fmt.Sprintf(src, v))
			if c := o.Cost(a, cfg); c <= 0 || c > 1e15 {
				t.Errorf("cost out of range for %q: %v", fmt.Sprintf(src, v), c)
			}
		}
	}
}

func TestSelectivityOf(t *testing.T) {
	o := New(testCat)
	wide := o.SelectivityOf(analyze(t, "UPDATE lineitem SET l_tax = 1 WHERE l_shipdate < 2500"))
	narrow := o.SelectivityOf(analyze(t, "UPDATE lineitem SET l_tax = 1 WHERE l_shipdate < 3"))
	if wide <= narrow {
		t.Errorf("selectivity ordering wrong: wide=%v narrow=%v", wide, narrow)
	}
	all := o.SelectivityOf(analyze(t, "SELECT l_tax FROM lineitem"))
	if all != 1 {
		t.Errorf("no-predicate selectivity = %v, want 1", all)
	}
}

func TestDisjunctionReducesIndexUsability(t *testing.T) {
	o := New(testCat)
	cfg := physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_partkey"}))
	conj := o.Cost(analyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 1900"), cfg)
	disj := o.Cost(analyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 1900 OR l_quantity = 3"), cfg)
	if disj <= conj {
		t.Errorf("disjunction should block the seek: conj=%v disj=%v", conj, disj)
	}
}

func TestCrossProductFallback(t *testing.T) {
	// No join predicate between the tables: the optimizer must still
	// produce a finite positive cost (cross product).
	o := New(testCat)
	a := analyze(t, "SELECT r_name, n_name FROM region, nation")
	if c := o.Cost(a, emptyCfg()); c <= 0 || c > 1e15 {
		t.Errorf("cross product cost = %v", c)
	}
}

func TestUnknownTableGraceful(t *testing.T) {
	o := New(testCat)
	st, err := sqlparse.Parse("SELECT x FROM ghost WHERE x = 1")
	if err != nil {
		t.Fatal(err)
	}
	a, err := sqlparse.Analyze(st, testCat.Resolve)
	if err != nil {
		t.Fatal(err)
	}
	if c := o.Cost(a, emptyCfg()); c <= 0 {
		t.Errorf("ghost table cost = %v, want small positive", c)
	}
}
