package physdes

import (
	"path/filepath"
	"testing"
)

// TestEndToEnd exercises the documented public flow: catalog → workload →
// candidates → configurations → probabilistic selection, cross-checked
// against the exhaustive answer.
func TestEndToEnd(t *testing.T) {
	cat := TPCDCatalog(0.01)
	wl, err := GenTPCD(cat, 800, 42)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer(cat)
	cands := EnumerateCandidates(cat, wl, CandidateOptions{Covering: true, Views: true})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	configs := GenerateConfigurations(cat, cands, 5, 7, SpaceOptions{MinStructures: 3, MaxStructures: 8})
	if len(configs) != 5 {
		t.Fatalf("got %d configurations", len(configs))
	}

	m := ComputeCostMatrix(NewOptimizer(cat), wl, configs)
	truth, _ := m.BestConfig()

	sel, err := Select(opt, wl, configs, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if sel.BestIndex != truth {
		chosen, best := m.TotalCost(sel.BestIndex), m.TotalCost(truth)
		if (chosen-best)/best > 0.05 {
			t.Errorf("selection %d (cost %v) far from best %d (cost %v)",
				sel.BestIndex, chosen, truth, best)
		}
	}
	if sel.OptimizerCalls >= sel.ExhaustiveCalls {
		t.Errorf("no call savings: %d vs %d", sel.OptimizerCalls, sel.ExhaustiveCalls)
	}
}

func TestPublicWorkloadStore(t *testing.T) {
	cat := TPCDCatalog(0.01)
	wl, err := GenTPCD(cat, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wl.jsonl")
	if err := SaveWorkload(wl, path); err != nil {
		t.Fatal(err)
	}
	st, err := OpenWorkloadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 100 {
		t.Errorf("store size = %d", st.Size())
	}
}

func TestPublicParseAndManualConfig(t *testing.T) {
	cat := TPCDCatalog(0.01)
	wl, err := ParseWorkload(cat, []string{
		"SELECT l_quantity FROM lineitem WHERE l_shipdate < 100",
		"SELECT l_quantity FROM lineitem WHERE l_shipdate < 500",
		"SELECT o_totalprice FROM orders WHERE o_orderkey = 7",
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer(cat)
	empty := NewConfiguration("empty")
	ix := NewConfiguration("shipdate-ix", NewIndex("lineitem", []string{"l_shipdate"}))
	m := ComputeCostMatrix(opt, wl, []*Configuration{empty, ix})
	if m.TotalCost(1) >= m.TotalCost(0) {
		t.Error("index configuration should win on this workload")
	}
}

func TestPublicCompressionAndTuning(t *testing.T) {
	cat := TPCDCatalog(0.01)
	wl, err := GenTPCD(cat, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer(cat)
	empty := NewConfiguration("empty")
	costs := make([]float64, wl.Size())
	for i, q := range wl.Queries {
		costs[i] = opt.Cost(q.Analysis, empty)
	}
	top := CompressTopCost(wl, costs, 0.2)
	if top.Size() == 0 {
		t.Fatal("empty compression")
	}
	cl := CompressCluster(wl, costs, top.Size())
	if cl.Size() == 0 {
		t.Fatal("empty clustering")
	}
	cands := EnumerateCandidates(cat, wl, CandidateOptions{})
	res := TuneGreedy(opt, cat, wl, nil, cands, TunerOptions{MaxStructures: 4})
	if res.Improvement() <= 0 {
		t.Error("tuner found no improvement")
	}
	if imp := EvaluateImprovement(opt, wl, res.Config); imp <= 0 {
		t.Error("EvaluateImprovement disagrees")
	}
}

func TestPublicCRMAndCachedOptimizer(t *testing.T) {
	cat := CRMCatalog()
	wl, err := GenCRM(cat, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Size() != 150 {
		t.Fatalf("size = %d", wl.Size())
	}
	opt := NewOptimizer(cat)
	cached := NewAtomicOptimizer(opt)
	cfg := NewConfiguration("empty")
	v1 := cached.Cost(wl.Queries[0].Analysis, cfg)
	calls := opt.Calls()
	v2 := cached.Cost(wl.Queries[0].Analysis, cfg)
	if v1 != v2 || calls == 0 || opt.Calls() != calls {
		t.Errorf("cache broken: %v vs %v, inner calls %d then %d", v1, v2, calls, opt.Calls())
	}
	if want := NewOptimizer(cat).Cost(wl.Queries[0].Analysis, cfg); v1 != want {
		t.Errorf("cached cost %v != direct cost %v", v1, want)
	}
	// Explain through the facade.
	plan := Explain(opt, wl.Queries[0], cfg)
	if plan.Total <= 0 {
		t.Errorf("plan total = %v", plan.Total)
	}
}
