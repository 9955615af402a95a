package optimizer

import (
	"math"
	"strconv"
	"testing"

	"physdes/internal/physical"
	"physdes/internal/stats"
)

func costOf(t *testing.T, o *Optimizer, src string, cfg *physical.Configuration) float64 {
	t.Helper()
	return o.Cost(analyze(t, src), cfg)
}

func TestLikeSelectivityShapes(t *testing.T) {
	o := New(testCat)
	cfg := physical.NewConfiguration("empty")
	// A leading-% LIKE is less selective than a long prefix LIKE, which
	// shows up as more output rows → higher cost on the same table.
	contains := costOf(t, o, "SELECT l_tax FROM lineitem WHERE l_comment LIKE '%abc%'", cfg)
	prefix := costOf(t, o, "SELECT l_tax FROM lineitem WHERE l_comment LIKE 'abcd%'", cfg)
	if prefix >= contains {
		t.Errorf("prefix LIKE (%v) should be cheaper than contains LIKE (%v)", prefix, contains)
	}
}

func TestPrefixLikeUsesIndexSeek(t *testing.T) {
	o := New(testCat)
	ix := physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_comment"}))
	heap := costOf(t, o, "SELECT l_tax FROM lineitem WHERE l_comment LIKE 'abcd%'", physical.NewConfiguration("empty"))
	seek := costOf(t, o, "SELECT l_tax FROM lineitem WHERE l_comment LIKE 'abcd%'", ix)
	if seek >= heap {
		t.Errorf("prefix LIKE should seek: %v vs %v", seek, heap)
	}
	// Contains LIKE cannot seek; costs must match the heap plan.
	c1 := costOf(t, o, "SELECT l_tax FROM lineitem WHERE l_comment LIKE '%abc%'", physical.NewConfiguration("empty"))
	c2 := costOf(t, o, "SELECT l_tax FROM lineitem WHERE l_comment LIKE '%abc%'", ix)
	if c2 < c1 {
		t.Errorf("contains LIKE must not seek: %v vs %v", c2, c1)
	}
}

func TestStringEqualitySelectivity(t *testing.T) {
	o := New(testCat)
	cfg := physical.NewConfiguration("empty")
	// A rank-encoded hot value ('SEG#1') hits more rows than a cold one.
	hot := costOf(t, o, "SELECT c_name FROM customer WHERE c_mktsegment = 'SEG#1'", cfg)
	cold := costOf(t, o, "SELECT c_name FROM customer WHERE c_mktsegment = 'SEG#5'", cfg)
	if hot <= cold {
		t.Errorf("hot segment (%v) should cost more than cold (%v)", hot, cold)
	}
	// A rankless string falls back to 1/distinct.
	if c := costOf(t, o, "SELECT c_name FROM customer WHERE c_mktsegment = 'whatever'", cfg); c <= 0 {
		t.Errorf("rankless equality cost = %v", c)
	}
}

func TestIsNullAndNeqSelectivity(t *testing.T) {
	o := New(testCat)
	cfg := physical.NewConfiguration("empty")
	// IS NULL on a never-null column selects (almost) nothing; <> selects
	// (almost) everything — the <> query must produce more rows and hence
	// cost at least as much.
	isNull := costOf(t, o, "SELECT l_tax FROM lineitem WHERE l_quantity IS NULL", cfg)
	neq := costOf(t, o, "SELECT l_tax FROM lineitem WHERE l_quantity <> 3", cfg)
	if neq < isNull {
		t.Errorf("<> (%v) should cost at least IS NULL (%v)", neq, isNull)
	}
}

func TestUnknownColumnDefaults(t *testing.T) {
	// Predicates on unknown columns fall back to default selectivities
	// without panicking (workload/schema mismatch resilience).
	o := New(testCat)
	stmts := []string{
		"SELECT ghost FROM lineitem WHERE ghost = 5",
		"SELECT ghost FROM lineitem WHERE ghost < 5",
		"SELECT ghost FROM lineitem WHERE ghost IN (1, 2)",
		"SELECT ghost FROM lineitem WHERE ghost LIKE 'x%'",
		"SELECT ghost FROM lineitem WHERE ghost IS NULL",
		"SELECT ghost FROM lineitem WHERE ghost <> 5",
	}
	cfg := physical.NewConfiguration("empty")
	for _, src := range stmts {
		if c := o.Cost(analyze(t, src), cfg); c <= 0 {
			t.Errorf("cost of %q = %v", src, c)
		}
	}
}

func TestRangeWithoutEndpoints(t *testing.T) {
	// A range predicate whose endpoints are not numeric literals gets the
	// classic 1/3 default and must not crash.
	o := New(testCat)
	c := costOf(t, o,
		"SELECT l_tax FROM lineitem WHERE l_shipdate BETWEEN l_commitdate AND l_receiptdate",
		physical.NewConfiguration("empty"))
	if c <= 0 {
		t.Errorf("cost = %v", c)
	}
}

func TestUpdatePartsSplit(t *testing.T) {
	o := New(testCat)
	cfg := physical.NewConfiguration("ix",
		physical.NewIndex("lineitem", []string{"l_orderkey"}),
		physical.NewIndex("lineitem", []string{"l_quantity"}))
	a := analyze(t, "UPDATE lineitem SET l_quantity = 1 WHERE l_orderkey = 5")
	locate, write := o.UpdateParts(a, cfg)
	if locate <= 0 || write <= 0 {
		t.Fatalf("parts = (%v, %v)", locate, write)
	}
	// The split must reassemble to the statement's cost.
	total := o.Cost(a, cfg)
	if diff := total - (locate + write); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("parts %v + %v != total %v", locate, write, total)
	}
	// SELECT statements have no write part.
	sa := analyze(t, "SELECT l_tax FROM lineitem WHERE l_orderkey = 5")
	sl, sw := o.UpdateParts(sa, cfg)
	if sw != 0 || sl <= 0 {
		t.Errorf("select parts = (%v, %v)", sl, sw)
	}
	// INSERT statements have no locate part.
	ia := analyze(t, "INSERT INTO lineitem (l_orderkey) VALUES (1)")
	il, iw := o.UpdateParts(ia, cfg)
	if il != 0 || iw <= 0 {
		t.Errorf("insert parts = (%v, %v)", il, iw)
	}
	// DELETE: both parts present.
	da := analyze(t, "DELETE FROM lineitem WHERE l_orderkey = 5")
	dl, dw := o.UpdateParts(da, cfg)
	if dl <= 0 || dw <= 0 {
		t.Errorf("delete parts = (%v, %v)", dl, dw)
	}
}

func TestCostBandCoversWobble(t *testing.T) {
	lo, hi := CostBand()
	if lo <= 0 || lo >= 1 || hi <= 1 {
		t.Errorf("CostBand = (%v, %v)", lo, hi)
	}
	if hi < wobbleTailMax {
		t.Errorf("band high %v below tail max %v", hi, wobbleTailMax)
	}
}

func TestOptimizeOverheadGrowsWithJoins(t *testing.T) {
	o := New(testCat)
	single := o.OptimizeOverhead(analyze(t, "SELECT l_tax FROM lineitem WHERE l_orderkey = 5"))
	joined := o.OptimizeOverhead(analyze(t,
		"SELECT l_tax FROM lineitem l, orders o, customer c WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey"))
	if joined <= single {
		t.Errorf("join overhead %v should exceed lookup overhead %v", joined, single)
	}
	if single < 1 {
		t.Errorf("overhead floor is 1, got %v", single)
	}
}

func TestCatalogAccessor(t *testing.T) {
	o := New(testCat)
	if o.Catalog() != testCat {
		t.Error("Catalog accessor broken")
	}
}

// TestAppendNumberMatchesFormatFloat pins the literal text pathWobble
// hashes to strconv.FormatFloat(v, 'g', -1, 64) across the integer fast
// path's edges (zero and negative zero, ±(1e6−1), 1e6, beyond int range),
// fractions, exponents and non-finite values, plus a sweep of integers
// and random draws.
func TestAppendNumberMatchesFormatFloat(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 7, 999999, -999999, 1e6, -1e6, 1e6 + 1,
		123456.5, 0.05, -0.07, 1e-5, 1e-4, 2.5e21, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), 9007199254740993, -9.5}
	for v := -2000.0; v <= 2000; v++ {
		vals = append(vals, v, v/8, v*997)
	}
	rng := stats.NewRNG(5)
	for i := 0; i < 5000; i++ {
		vals = append(vals, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(30)-10)))
	}
	for _, v := range vals {
		if got, want := string(appendNumber(nil, v)), strconv.FormatFloat(v, 'g', -1, 64); got != want {
			t.Errorf("appendNumber(%v) = %q, FormatFloat %q", v, got, want)
		}
	}
}
