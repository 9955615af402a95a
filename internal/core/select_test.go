package core

import (
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

func scenario(t *testing.T, n int, k int, seed uint64) (*optimizer.Optimizer, *workload.Workload, []*physical.Configuration) {
	t.Helper()
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	analyses := w.Analyses()
	cands := physical.EnumerateCandidates(cat, analyses, physical.CandidateOptions{Covering: true, Views: true})
	space := physical.GenerateSpace(cat, cands, k, stats.NewRNG(seed+1),
		physical.SpaceOptions{MinStructures: 3, MaxStructures: 8})
	if len(space) < k {
		t.Fatalf("only %d configurations generated", len(space))
	}
	return opt, w, space
}

func exactBest(opt *optimizer.Optimizer, w *workload.Workload, configs []*physical.Configuration) int {
	m := workload.ComputeCostMatrix(opt, w, configs)
	best, _ := m.BestConfig()
	return best
}

func TestSelectValidation(t *testing.T) {
	opt, w, space := scenario(t, 50, 3, 1)
	if _, err := Select(opt, nil, space, DefaultOptions(1)); err == nil {
		t.Error("nil workload should error")
	}
	if _, err := Select(opt, w, space[:1], DefaultOptions(1)); err == nil {
		t.Error("single configuration should error")
	}
}

func TestSelectFindsBest(t *testing.T) {
	opt, w, space := scenario(t, 600, 4, 2)
	truth := exactBest(opt, w, space)
	sel, err := Select(opt, w, space, DefaultOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	if sel.BestIndex != truth {
		// With α=0.9 an occasional miss is legitimate; require the miss to
		// be a near-tie rather than a blunder.
		m := workload.ComputeCostMatrix(optimizer.New(opt.Catalog()), w, space)
		chosen, best := m.TotalCost(sel.BestIndex), m.TotalCost(truth)
		if (chosen-best)/best > 0.05 {
			t.Errorf("selected %d (cost %v), exact best %d (cost %v)",
				sel.BestIndex, chosen, truth, best)
		}
	}
	if sel.Best != space[sel.BestIndex] {
		t.Error("Best pointer mismatch")
	}
	if sel.PrCS < 0.9 && sel.SampledQueries < w.Size() {
		t.Errorf("terminated without reaching α: PrCS=%v", sel.PrCS)
	}
	if sel.ExhaustiveCalls != int64(w.Size()*len(space)) {
		t.Errorf("ExhaustiveCalls = %d", sel.ExhaustiveCalls)
	}
	t.Logf("calls=%d of exhaustive %d (savings %.1f%%), strata=%d splits=%d",
		sel.OptimizerCalls, sel.ExhaustiveCalls, 100*sel.Savings(), sel.Strata, sel.Splits)
}

func TestSelectSavesCallsOnLargeWorkload(t *testing.T) {
	opt, w, space := scenario(t, 3000, 2, 3)
	sel, err := Select(opt, w, space, DefaultOptions(11))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Savings() < 0.5 {
		t.Errorf("savings = %.2f, want > 0.5 on a 3000-query workload", sel.Savings())
	}
}

func TestSelectConservativeMode(t *testing.T) {
	opt, w, space := scenario(t, 400, 2, 4)
	o := DefaultOptions(13)
	o.Conservative = true
	o.Rho = 5
	sel, err := Select(opt, w, space, o)
	if err != nil {
		t.Fatal(err)
	}
	if sel.CLTMinSamples <= 0 {
		t.Error("conservative mode must report the Equation 9 floor")
	}
	if sel.VarianceBound <= 0 {
		t.Error("conservative mode must report the σ²_max bound")
	}
	if sel.SampledQueries < minI(sel.CLTMinSamples, w.Size()) {
		t.Errorf("sampled %d below the CLT floor %d", sel.SampledQueries, sel.CLTMinSamples)
	}
	// Conservative accounting includes bound-derivation calls.
	plain, err := Select(optimizer.New(opt.Catalog()), w, space, DefaultOptions(13))
	if err != nil {
		t.Fatal(err)
	}
	if sel.OptimizerCalls <= plain.OptimizerCalls {
		t.Errorf("conservative calls %d should exceed plain %d",
			sel.OptimizerCalls, plain.OptimizerCalls)
	}
}

func TestSelectIndependentScheme(t *testing.T) {
	opt, w, space := scenario(t, 500, 2, 6)
	o := DefaultOptions(19)
	o.Scheme = sampling.Independent
	o.Strat = sampling.NoStrat
	sel, err := Select(opt, w, space, o)
	if err != nil {
		t.Fatal(err)
	}
	if sel.BestIndex < 0 || sel.BestIndex >= len(space) {
		t.Errorf("BestIndex out of range: %d", sel.BestIndex)
	}
}

func TestSelectFixedBudget(t *testing.T) {
	opt, w, space := scenario(t, 1000, 2, 7)
	o := DefaultOptions(23)
	o.MaxCalls = 200
	sel, err := Select(opt, w, space, o)
	if err != nil {
		t.Fatal(err)
	}
	if sel.OptimizerCalls > 200 {
		t.Errorf("budget exceeded: %d", sel.OptimizerCalls)
	}
}

func TestSelectionSavingsClamp(t *testing.T) {
	s := &Selection{OptimizerCalls: 100, ExhaustiveCalls: 50}
	if s.Savings() != 0 {
		t.Error("negative savings should clamp to 0")
	}
	s2 := &Selection{}
	if s2.Savings() != 0 {
		t.Error("zero exhaustive should be 0")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions(42)
	if o.Alpha != 0.9 || o.StabilityWindow != 10 || o.EliminationThreshold != 0.995 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.Scheme != sampling.Delta || o.Strat != sampling.Progressive {
		t.Error("default scheme should be Delta+Progressive")
	}
	// Explicit opt-out of elimination.
	o2 := Options{EliminationThreshold: -1}.withDefaults()
	if o2.EliminationThreshold != 0 {
		t.Errorf("negative threshold should disable: %v", o2.EliminationThreshold)
	}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSelectOverheadAware(t *testing.T) {
	opt, w, space := scenario(t, 500, 2, 8)
	o := DefaultOptions(29)
	o.OverheadAware = true
	sel, err := Select(opt, w, space, o)
	if err != nil {
		t.Fatal(err)
	}
	if sel.BestIndex < 0 || sel.PrCS < 0 {
		t.Errorf("overhead-aware selection malformed: %+v", sel)
	}
}
