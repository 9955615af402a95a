package physical

import (
	"strings"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
)

func tpcd(t *testing.T) *catalog.Catalog {
	t.Helper()
	return catalog.TPCD(0.01)
}

func TestIndexCanonicalization(t *testing.T) {
	a := NewIndex("t", []string{"k1", "k2"}, "i2", "i1", "i1", "k1")
	if a.ID() != "IX(t;k1,k2;i1,i2)" {
		t.Errorf("ID = %q", a.ID())
	}
	b := NewIndex("t", []string{"k1", "k2"}, "i1", "i2")
	if a.ID() != b.ID() {
		t.Error("equivalent indexes must share an ID")
	}
	// Key order is significant.
	c := NewIndex("t", []string{"k2", "k1"}, "i1", "i2")
	if a.ID() == c.ID() {
		t.Error("key order must distinguish indexes")
	}
	if a.LeadColumn() != "k1" {
		t.Errorf("LeadColumn = %q", a.LeadColumn())
	}
}

func TestIndexCovers(t *testing.T) {
	ix := NewIndex("t", []string{"a", "b"}, "c")
	col := func(names ...string) []sqlparse.TableColumn {
		var out []sqlparse.TableColumn
		for _, n := range names {
			out = append(out, sqlparse.TableColumn{Table: "t", Column: n})
		}
		return out
	}
	if !ix.Covers(col("a", "c")) || !ix.Covers(nil) {
		t.Error("Covers should accept subsets")
	}
	if ix.Covers(col("a", "z")) {
		t.Error("Covers should reject missing columns")
	}
}

func TestIndexSizeBytes(t *testing.T) {
	cat := tpcd(t)
	li := cat.MustTable("lineitem")
	ix := NewIndex("lineitem", []string{"l_shipdate"})
	want := int64(li.Rows) * int64(4+8) // width 4 + 8-byte pointer
	if got := ix.SizeBytes(cat); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
	if NewIndex("nosuch", []string{"x"}).SizeBytes(cat) != 0 {
		t.Error("unknown table size should be 0")
	}
}

func TestViewCanonicalizationAndEstimates(t *testing.T) {
	j := sqlparse.JoinPredicate{
		Left:  sqlparse.TableColumn{Table: "lineitem", Column: "l_orderkey"},
		Right: sqlparse.TableColumn{Table: "orders", Column: "o_orderkey"},
	}
	v1 := NewView([]string{"orders", "lineitem"}, []sqlparse.JoinPredicate{j},
		[]sqlparse.TableColumn{{Table: "orders", Column: "o_orderdate"}, {Table: "lineitem", Column: "l_quantity"}}, nil)
	v2 := NewView([]string{"lineitem", "orders"}, []sqlparse.JoinPredicate{j},
		[]sqlparse.TableColumn{{Table: "lineitem", Column: "l_quantity"}, {Table: "orders", Column: "o_orderdate"}}, nil)
	if v1.ID() != v2.ID() {
		t.Error("component order must not change view identity")
	}
	if !v1.HasTable("orders") || v1.HasTable("part") {
		t.Error("HasTable wrong")
	}

	cat := tpcd(t)
	rows := v1.EstimatedRows(cat)
	// lineitem ⋈ orders on orderkey ≈ |lineitem| (FK join).
	li := cat.MustTable("lineitem")
	if rows < int64(li.Rows)/2 || rows > int64(li.Rows)*2 {
		t.Errorf("FK join estimate = %d, want ≈ %d", rows, li.Rows)
	}
	if v1.SizeBytes(cat) <= 0 {
		t.Error("view size should be positive")
	}
}

func TestViewGroupByCapsRows(t *testing.T) {
	v := NewView([]string{"lineitem"}, nil,
		[]sqlparse.TableColumn{{Table: "lineitem", Column: "l_returnflag"}},
		[]sqlparse.TableColumn{{Table: "lineitem", Column: "l_returnflag"}})
	cat := tpcd(t)
	if rows := v.EstimatedRows(cat); rows != 3 {
		t.Errorf("grouped view rows = %d, want 3 (distinct flags)", rows)
	}
}

func TestConfigurationBasics(t *testing.T) {
	ix1 := NewIndex("lineitem", []string{"l_shipdate"})
	ix2 := NewIndex("orders", []string{"o_orderdate"})
	v := NewView([]string{"lineitem", "orders"}, nil, nil, nil)
	c := NewConfiguration("C1", ix1, ix2, v, ix1) // duplicate collapses
	if c.Name() != "C1" {
		t.Errorf("Name = %q", c.Name())
	}
	if c.NumStructures() != 3 {
		t.Errorf("NumStructures = %d", c.NumStructures())
	}
	if !c.Has(ix1.ID()) || c.Has("IX(zz;a;)") {
		t.Error("Has wrong")
	}
	if got := len(c.IndexesOn("lineitem")); got != 1 {
		t.Errorf("IndexesOn(lineitem) = %d", got)
	}
	if len(c.Views()) != 1 || len(c.Indexes()) != 2 {
		t.Error("views/indexes split wrong")
	}
}

func TestConfigurationFingerprintOrderIndependent(t *testing.T) {
	ix1 := NewIndex("a", []string{"x"})
	ix2 := NewIndex("b", []string{"y"})
	c1 := NewConfiguration("A", ix1, ix2)
	c2 := NewConfiguration("B", ix2, ix1)
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Error("fingerprint must be order independent")
	}
}

func TestConfigurationWithWithout(t *testing.T) {
	ix1 := NewIndex("a", []string{"x"})
	ix2 := NewIndex("b", []string{"y"})
	base := NewConfiguration("base", ix1)
	plus := base.With("plus", ix2)
	if plus.NumStructures() != 2 || base.NumStructures() != 1 {
		t.Error("With must not mutate the receiver")
	}
	minus := plus.Without("minus", ix1.ID())
	if minus.NumStructures() != 1 || minus.Has(ix1.ID()) {
		t.Error("Without failed")
	}
}

func TestUnionIntersectionOverlap(t *testing.T) {
	ix1 := NewIndex("a", []string{"x"})
	ix2 := NewIndex("b", []string{"y"})
	ix3 := NewIndex("c", []string{"z"})
	c1 := NewConfiguration("1", ix1, ix2)
	c2 := NewConfiguration("2", ix2, ix3)
	u := Union("u", c1, c2)
	if u.NumStructures() != 3 {
		t.Errorf("union size = %d", u.NumStructures())
	}
	i := Intersection("i", c1, c2)
	if i.NumStructures() != 1 || !i.Has(ix2.ID()) {
		t.Errorf("intersection wrong: %d structures", i.NumStructures())
	}
	if got := Overlap(c1, c2); got != 1.0/3.0 {
		t.Errorf("Overlap = %v, want 1/3", got)
	}
	empty := NewConfiguration("e")
	if Overlap(empty, empty) != 1 {
		t.Error("two empty configs overlap fully")
	}
	if Intersection("e").NumStructures() != 0 {
		t.Error("empty intersection")
	}
}

func TestEnumerateCandidates(t *testing.T) {
	cat := tpcd(t)
	srcs := []string{
		"SELECT l_quantity FROM lineitem WHERE l_shipdate BETWEEN 100 AND 200 AND l_returnflag = 'F#1'",
		"SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate < 500",
		"SELECT c_name FROM customer WHERE c_mktsegment = 'SEG#2' ORDER BY c_acctbal",
	}
	var analyses []*sqlparse.Analysis
	for _, src := range srcs {
		st, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sqlparse.Analyze(st, cat.Resolve)
		if err != nil {
			t.Fatal(err)
		}
		analyses = append(analyses, a)
	}
	cands := EnumerateCandidates(cat, analyses, CandidateOptions{Covering: true, Views: true})
	if len(cands) < 8 {
		t.Fatalf("too few candidates: %d", len(cands))
	}
	ids := make(map[string]bool)
	var haveView, haveComposite, haveCovering bool
	for _, s := range cands {
		if ids[s.ID()] {
			t.Errorf("duplicate candidate %s", s.ID())
		}
		ids[s.ID()] = true
		switch x := s.(type) {
		case *View:
			haveView = true
		case *Index:
			if len(x.Key) > 1 {
				haveComposite = true
			}
			if len(x.Include) > 0 {
				haveCovering = true
			}
		}
	}
	if !haveView || !haveComposite || !haveCovering {
		t.Errorf("candidate mix incomplete: view=%v composite=%v covering=%v",
			haveView, haveComposite, haveCovering)
	}
	// Determinism: same inputs, same output order.
	again := EnumerateCandidates(cat, analyses, CandidateOptions{Covering: true, Views: true})
	if len(again) != len(cands) {
		t.Fatal("non-deterministic candidate count")
	}
	for i := range cands {
		if cands[i].ID() != again[i].ID() {
			t.Fatal("non-deterministic candidate order")
		}
	}
	// Index-only filter removes views.
	for _, s := range IndexesOnly(cands) {
		if _, isView := s.(*View); isView {
			t.Error("IndexesOnly returned a view")
		}
	}
}

func TestEnumerateSkipsDisjunctivePreds(t *testing.T) {
	cat := tpcd(t)
	st, err := sqlparse.Parse("SELECT l_quantity FROM lineitem WHERE l_shipdate = 5 OR l_quantity = 3")
	if err != nil {
		t.Fatal(err)
	}
	a, err := sqlparse.Analyze(st, cat.Resolve)
	if err != nil {
		t.Fatal(err)
	}
	cands := EnumerateCandidates(cat, []*sqlparse.Analysis{a}, CandidateOptions{})
	if len(cands) != 0 {
		t.Errorf("OR-only predicates should yield no seek candidates, got %d", len(cands))
	}
}

func TestGenerateSpace(t *testing.T) {
	cat := tpcd(t)
	var cands []Structure
	for _, col := range []string{"l_shipdate", "l_quantity", "l_partkey", "l_suppkey", "l_orderkey", "l_discount", "l_extendedprice", "l_returnflag"} {
		cands = append(cands, NewIndex("lineitem", []string{col}))
	}
	rng := stats.NewRNG(1)
	space := GenerateSpace(cat, cands, 20, rng, SpaceOptions{MinStructures: 2, MaxStructures: 5})
	if len(space) != 20 {
		t.Fatalf("got %d configurations, want 20", len(space))
	}
	seen := make(map[string]bool)
	for _, cfg := range space {
		n := cfg.NumStructures()
		if n < 2 || n > 5 {
			t.Errorf("config %s has %d structures", cfg.Name(), n)
		}
		if seen[cfg.Fingerprint()] {
			t.Errorf("duplicate configuration %s", cfg.Name())
		}
		seen[cfg.Fingerprint()] = true
	}
	// Reproducible from the seed.
	space2 := GenerateSpace(cat, cands, 20, stats.NewRNG(1), SpaceOptions{MinStructures: 2, MaxStructures: 5})
	for i := range space {
		if space[i].Fingerprint() != space2[i].Fingerprint() {
			t.Fatal("space generation not reproducible")
		}
	}
}

func TestGenerateSpaceBudget(t *testing.T) {
	cat := tpcd(t)
	var cands []Structure
	for _, col := range []string{"l_shipdate", "l_quantity", "l_partkey", "l_comment"} {
		cands = append(cands, NewIndex("lineitem", []string{col}))
	}
	budget := int64(400_000)
	space := GenerateSpace(cat, cands, 5, stats.NewRNG(2), SpaceOptions{
		MinStructures: 1, MaxStructures: 4, BudgetBytes: budget,
	})
	for _, cfg := range space {
		if sz := cfg.SizeBytes(cat); sz > budget {
			// First structure is always admitted even when oversized; only
			// flag beyond-first violations.
			if cfg.NumStructures() > 1 {
				t.Errorf("config %s exceeds budget: %d > %d", cfg.Name(), sz, budget)
			}
		}
	}
}

func TestGenerateSpaceEmpty(t *testing.T) {
	if GenerateSpace(tpcd(t), nil, 5, stats.NewRNG(1), SpaceOptions{}) != nil {
		t.Error("no candidates should give no configurations")
	}
}

func TestStructureStringers(t *testing.T) {
	ix := NewIndex("t", []string{"a"})
	if !strings.Contains(ix.String(), "IX(t;a;") {
		t.Errorf("index String = %q", ix.String())
	}
	v := NewView([]string{"t"}, nil, nil, nil)
	if !strings.HasPrefix(v.String(), "MV(") {
		t.Errorf("view String = %q", v.String())
	}
}

func TestEnumerateMergedIndexes(t *testing.T) {
	cat := tpcd(t)
	srcs := []string{
		"SELECT l_quantity FROM lineitem WHERE l_shipdate < 100",
		"SELECT l_quantity FROM lineitem WHERE l_quantity = 5",
	}
	var analyses []*sqlparse.Analysis
	for _, src := range srcs {
		st, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sqlparse.Analyze(st, cat.Resolve)
		if err != nil {
			t.Fatal(err)
		}
		analyses = append(analyses, a)
	}
	plain := EnumerateCandidates(cat, analyses, CandidateOptions{})
	merged := EnumerateCandidates(cat, analyses, CandidateOptions{Merged: true})
	if len(merged) <= len(plain) {
		t.Fatalf("merging added nothing: %d vs %d", len(merged), len(plain))
	}
	// A two-column merge of the two single-column candidates must exist.
	found := false
	for _, s := range merged {
		ix, ok := s.(*Index)
		if ok && ix.Table == "lineitem" && len(ix.Key) == 2 {
			found = true
		}
	}
	if !found {
		t.Error("no two-column merged index enumerated")
	}
	// Determinism.
	again := EnumerateCandidates(cat, analyses, CandidateOptions{Merged: true})
	if len(again) != len(merged) {
		t.Fatal("merge enumeration not deterministic")
	}
	for i := range merged {
		if merged[i].ID() != again[i].ID() {
			t.Fatal("merge enumeration order not deterministic")
		}
	}
}

func TestMergedIndexesRespectKeyCap(t *testing.T) {
	cat := tpcd(t)
	srcs := []string{
		"SELECT l_tax FROM lineitem WHERE l_shipdate = 1 AND l_quantity = 2 AND l_discount = 3",
		"SELECT l_tax FROM lineitem WHERE l_partkey = 4 AND l_suppkey = 5 AND l_orderkey = 6",
	}
	var analyses []*sqlparse.Analysis
	for _, src := range srcs {
		st, _ := sqlparse.Parse(src)
		a, err := sqlparse.Analyze(st, cat.Resolve)
		if err != nil {
			t.Fatal(err)
		}
		analyses = append(analyses, a)
	}
	for _, s := range EnumerateCandidates(cat, analyses, CandidateOptions{Merged: true, MaxKeyColumns: 3}) {
		if ix, ok := s.(*Index); ok && len(ix.Key) > 3 {
			t.Errorf("merged key exceeds cap: %s", ix.ID())
		}
	}
}

func TestDiff(t *testing.T) {
	shared := NewIndex("t", []string{"a"})
	onlyA := NewIndex("t", []string{"b"})
	onlyB := NewIndex("t", []string{"c"})
	a := NewConfiguration("a", shared, onlyA)
	b := NewConfiguration("b", shared, onlyB)
	build, drop := Diff(a, b)
	if len(build) != 1 || build[0].ID() != onlyB.ID() {
		t.Errorf("build = %v", build)
	}
	if len(drop) != 1 || drop[0].ID() != onlyA.ID() {
		t.Errorf("drop = %v", drop)
	}
	nb, nd := Diff(a, a)
	if nb != nil || nd != nil {
		t.Error("self diff should be empty")
	}
}
