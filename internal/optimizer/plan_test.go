package optimizer_test

import (
	"math"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
	"physdes/internal/workload"
)

// TestPlanTableMatchesCost pins the atom store's plan table, which keeps
// one decomposition per (statement shape, configuration), to direct
// costing: one store costs up to 200 statements of every shape of the
// benchmark's two spaces, in workload order and under changing subsets
// of the space, so most probes reuse a plan another statement of the
// shape left, and every value must equal Optimizer.Cost bit for bit.
func TestPlanTableMatchesCost(t *testing.T) {
	const perShape = 200
	for _, sp := range rowSpaces(t) {
		t.Run(sp.name, func(t *testing.T) {
			store := optimizer.NewAtomicCache(optimizer.New(sp.cat))
			direct := optimizer.New(sp.cat)
			out := make([]float64, len(sp.configs))
			costed := map[any]int{}
			for q, query := range sp.w.Queries {
				a := query.Analysis
				if costed[a.Bound] == perShape {
					continue
				}
				costed[a.Bound]++
				cfgs := rowConfigs(sp.configs, q)
				store.CostRow(a, cfgs, out)
				for i, cfg := range cfgs {
					if want := direct.Cost(a, cfg); math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("query %d (%d of its shape) under %s: store %v, direct %v", q, costed[a.Bound], cfg.Name(), out[i], want)
					}
				}
			}
			if len(costed) < 2 {
				t.Fatalf("%d shapes costed", len(costed))
			}
		})
	}
}

// TestPlanTableLikePattern pins the plan table's LIKE guard: the
// relevance filter reads a LIKE pattern (a prefix pattern can seek an
// index on its column, a contains pattern cannot), so two statements of
// one shape that differ only in that literal must not share a
// decomposition. In either order, each must cost as directly.
func TestPlanTableLikePattern(t *testing.T) {
	cat := catalog.TPCD(1)
	w, err := workload.Parse(cat, []string{
		"SELECT c_name, c_address FROM customer WHERE c_phone LIKE '%abc'",
		"SELECT c_name, c_address FROM customer WHERE c_phone LIKE 'abc%'",
	})
	if err != nil {
		t.Fatal(err)
	}
	contains, prefix := w.Queries[0].Analysis, w.Queries[1].Analysis
	if contains.Bound == nil || contains.Bound != prefix.Bound {
		t.Fatal("the two statements do not share their shape stamps")
	}
	cfg := physical.NewConfiguration("phone", physical.NewIndex("customer", []string{"c_phone"}))
	direct := optimizer.New(cat)
	if direct.Cost(prefix, cfg) >= direct.Cost(prefix, physical.NewConfiguration("none")) {
		t.Fatal("the index on c_phone does not lower the prefix statement's cost")
	}
	for _, order := range [][]*sqlparse.Analysis{{contains, prefix}, {prefix, contains}} {
		store := optimizer.NewAtomicCache(optimizer.New(cat))
		for _, a := range order {
			if got, want := store.Cost(a, cfg), direct.Cost(a, cfg); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("LIKE %s: store %v, direct %v", a.Preds[0].LikePattern, got, want)
			}
		}
	}
}
