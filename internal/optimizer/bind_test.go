package optimizer_test

import (
	"math"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// bindScenario is one generated workload, bound by workload.Parse.
type bindScenario struct {
	name string
	cat  *catalog.Catalog
	w    *workload.Workload
	co   physical.CandidateOptions
}

func bindScenarios(t *testing.T) []bindScenario {
	t.Helper()
	tpcdCat := catalog.TPCD(0.1)
	tw, err := workload.GenTPCD(tpcdCat, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	crmCat := catalog.CRM()
	cw, err := workload.GenCRM(crmCat, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	return []bindScenario{
		{"tpcd", tpcdCat, tw, physical.CandidateOptions{Covering: true, Views: true}},
		{"crm", crmCat, cw, physical.CandidateOptions{Covering: true}},
	}
}

// analyzeUnbound parses and analyzes src against cat without binding.
func analyzeUnbound(t *testing.T, cat *catalog.Catalog, src string) *sqlparse.Analysis {
	t.Helper()
	st, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	a, err := sqlparse.Analyze(st, cat.Resolve)
	if err != nil {
		t.Fatalf("Analyze(%q): %v", src, err)
	}
	return a
}

// TestBoundSelectivityMatchesEstimate checks every predicate of the TPC-D
// and CRM workloads: the value workload.Parse bound equals, bit for bit,
// the estimate an optimizer over the same catalog makes for the predicate
// unbound.
func TestBoundSelectivityMatchesEstimate(t *testing.T) {
	for _, sc := range bindScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			o := optimizer.New(sc.cat)
			preds := 0
			for _, q := range sc.w.Queries {
				if q.Analysis.Bound == nil {
					t.Fatalf("statement %d is not bound", q.ID)
				}
				for _, bound := range q.Analysis.Preds {
					preds++
					// A lone conjunctive predicate's table selectivity is its
					// own (already clamped) selectivity.
					p := bound
					p.Sel = 0
					p.InDisjunction = false
					one := &sqlparse.Analysis{Kind: sqlparse.KindSelect, Tables: []string{p.Col.Table}, Preds: []sqlparse.ColumnPredicate{p}}
					if est := o.SelectivityOf(one); est != bound.Sel {
						t.Fatalf("statement %d: predicate on %s bound %v, estimate %v", q.ID, p.Col, bound.Sel, est)
					}
				}
			}
			if preds == 0 {
				t.Fatal("workload has no predicates")
			}
		})
	}
}

// TestBoundCostMatrixMatchesUnbound costs the k=20 matrix of each
// workload twice, once as workload.Parse bound it and once over the same
// SQL analyzed unbound: the FNV-64 of the cost bits must match. On the
// benchmark's two spaces it then checks the stamps against an optimizer
// over another catalog (checkStampsMatchOtherCatalog).
func TestBoundCostMatrixMatchesUnbound(t *testing.T) {
	for _, sp := range rowSpaces(t) {
		t.Run("other-catalog/"+sp.name, func(t *testing.T) { checkStampsMatchOtherCatalog(t, sp) })
	}
	for _, sc := range bindScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			queries := make([]*workload.Query, len(sc.w.Queries))
			analyses := make([]*sqlparse.Analysis, len(sc.w.Queries))
			for i, q := range sc.w.Queries {
				a := analyzeUnbound(t, sc.cat, q.SQL)
				if a.Bound != nil {
					t.Fatal("sqlparse.Analyze returned a bound analysis")
				}
				queries[i] = &workload.Query{ID: q.ID, SQL: q.SQL, Analysis: a, Template: q.Template}
				analyses[i] = q.Analysis
			}
			cands := physical.EnumerateCandidates(sc.cat, analyses, sc.co)
			configs := physical.GenerateSpace(sc.cat, cands, 20, stats.NewRNG(7), physical.SpaceOptions{})
			bound := costBitsHash(workload.ComputeCostMatrix(optimizer.New(sc.cat), sc.w, configs))
			plain := costBitsHash(workload.ComputeCostMatrix(optimizer.New(sc.cat), workload.New(queries), configs))
			if bound != plain {
				t.Errorf("bound matrix fnv64=%016x, unbound %016x", bound, plain)
			}
		})
	}
}

// checkStampsMatchOtherCatalog checks every shape stamp Bind leaves
// (tables, referenced-column runs, join and group-by distinct counts,
// table slots, heap path keys) on one of the benchmark's spaces: every
// statement must carry them, and a stride of statements costed from the
// stamps — directly and through an atom store — must match, bit for bit,
// an optimizer over an equal catalog at another pointer, which ignores
// them and looks everything up by name. (TestBindingFitsShapeCopies pins
// when the probe reads the stamps.)
func checkStampsMatchOtherCatalog(t *testing.T, sp rowSpace) {
	const stride = 5
	other := catalog.TPCD(1)
	if sp.name == "crm-k200" {
		other = catalog.CRM()
	}
	stamped, plain := optimizer.New(sp.cat), optimizer.New(other)
	store := optimizer.NewAtomicCache(optimizer.New(sp.cat))
	out := make([]float64, len(sp.configs))
	for i, q := range sp.w.Queries {
		a := q.Analysis
		if a.Bound == nil {
			t.Fatalf("statement %d carries no shape stamps", i)
		}
		if i%stride != 0 {
			continue
		}
		store.CostRow(a, sp.configs, out)
		for j, cfg := range sp.configs {
			want := math.Float64bits(plain.Cost(a, cfg))
			if got := math.Float64bits(stamped.Cost(a, cfg)); got != want {
				t.Fatalf("statement %d, %s: stamped cost %x, by name %x", i, cfg.Name(), got, want)
			}
			if got := math.Float64bits(out[j]); got != want {
				t.Fatalf("statement %d, %s: stamped store cost %x, by name %x", i, cfg.Name(), got, want)
			}
		}
	}
}

// TestBoundSelectivityCatalogGuard binds statements against one catalog
// and costs them with an optimizer over another: that optimizer must
// estimate from its own catalog, costing exactly as for the unbound
// statement. Bound values are poisoned first, so the test also shows the
// binding catalog's optimizer does read them.
func TestBoundSelectivityCatalogGuard(t *testing.T) {
	bindCat, costCat := catalog.TPCD(1), catalog.TPCD(0.01)
	cfg := physical.NewConfiguration("c",
		physical.NewIndex("lineitem", []string{"l_shipdate"}),
		physical.NewIndex("orders", []string{"o_custkey"}),
		physical.NewIndex("customer", []string{"c_mktsegment"}))
	for _, src := range []string{
		"SELECT l_quantity FROM lineitem WHERE l_shipdate < 100 AND l_quantity = 5",
		"SELECT c_name, o_orderdate FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND c_mktsegment = 'SEG#1' AND o_orderdate < 30",
		"UPDATE lineitem SET l_tax = 1 WHERE l_shipdate < 10",
	} {
		w, err := workload.Parse(bindCat, []string{src})
		if err != nil {
			t.Fatal(err)
		}
		a := w.Queries[0].Analysis
		if a.Bound == nil {
			t.Fatalf("%q: not bound by workload.Parse", src)
		}
		for i := range a.Preds {
			a.Preds[i].Sel = 0.5
		}
		if got, want := optimizer.New(costCat).Cost(a, cfg), optimizer.New(costCat).Cost(analyzeUnbound(t, costCat, src), cfg); got != want {
			t.Errorf("%q: other-catalog cost %v, unbound %v", src, got, want)
		}
		if got, plain := optimizer.New(bindCat).Cost(a, cfg), optimizer.New(bindCat).Cost(analyzeUnbound(t, bindCat, src), cfg); got == plain {
			t.Errorf("%q: the binding catalog's optimizer ignored the bound selectivities", src)
		}
	}
}

// TestBindAllocFree pins binding's cost: once the statement's column
// histograms are built, binding it allocates nothing.
func TestBindAllocFree(t *testing.T) {
	a := analyzeUnbound(t, atomsCat, "SELECT c_name, o_orderdate FROM customer c, orders o "+
		"WHERE c.c_custkey = o.o_custkey AND c_mktsegment = 'SEG#1' AND o_orderdate BETWEEN 30 AND 90 "+
		"AND o_orderpriority IN ('1-URGENT', '2-HIGH') AND c_phone LIKE 'ab%' AND o_comment IS NULL")
	optimizer.Bind(atomsCat, a)
	if n := testing.AllocsPerRun(100, func() { optimizer.Bind(atomsCat, a) }); n != 0 {
		t.Errorf("Bind allocates %v times per statement, want 0", n)
	}
}
