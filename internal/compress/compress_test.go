package compress

import (
	"math"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

func testWorkloadAndCosts(t *testing.T, n int, seed uint64) (*workload.Workload, []float64) {
	t.Helper()
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic current-configuration costs: expensive templates are the
	// multi-join aggregates, cheap ones the lookups. A simple proxy:
	// template index → magnitude.
	tmpl := w.Partition().Of
	costs := make([]float64, w.Size())
	rng := stats.NewRNG(seed)
	for i := range costs {
		costs[i] = math.Pow(8, float64(tmpl[i]%5)) * (1 + rng.Float64())
	}
	return w, costs
}

func TestTopCostRetainsFraction(t *testing.T) {
	w, costs := testWorkloadAndCosts(t, 500, 1)
	var total float64
	for _, c := range costs {
		total += c
	}
	c := TopCost(w, costs, 0.2)
	var kept float64
	for _, id := range c.IDs {
		kept += costs[id]
	}
	if kept < 0.2*total {
		t.Errorf("kept %.1f%% of cost, want ≥ 20%%", 100*kept/total)
	}
	// Must keep fewer queries than the full workload (costs are skewed).
	if c.Size() >= w.Size()/2 {
		t.Errorf("compression kept %d of %d queries", c.Size(), w.Size())
	}
	// Descending cost order: first kept query is the most expensive.
	maxCost := 0.0
	for _, v := range costs {
		if v > maxCost {
			maxCost = v
		}
	}
	if costs[c.IDs[0]] != maxCost {
		t.Error("first kept query is not the most expensive")
	}
	for _, wgt := range c.Weights {
		if wgt != 1 {
			t.Error("TopCost weights must be 1")
		}
	}
}

func TestTopCostEdgeCases(t *testing.T) {
	w, costs := testWorkloadAndCosts(t, 50, 2)
	if TopCost(w, costs, 0).Size() != 0 {
		t.Error("x=0 should keep nothing")
	}
	all := TopCost(w, costs, 1.5) // clamps to 1
	if all.Size() != w.Size() {
		t.Errorf("x=1 should keep everything, kept %d", all.Size())
	}
}

// The Section 7.3 failure mode: with skewed per-template costs, [20]
// captures only the few expensive templates.
func TestTopCostMissesTemplates(t *testing.T) {
	w, costs := testWorkloadAndCosts(t, 1000, 3)
	c := TopCost(w, costs, 0.2)
	coverage := c.TemplateCoverage(w)
	if coverage >= w.NumTemplates() {
		t.Errorf("top-cost compression covered all %d templates; expected gaps", coverage)
	}
	t.Logf("top-20%% covers %d of %d templates with %d queries",
		coverage, w.NumTemplates(), c.Size())
}

func TestClusterWeightsPreserveMass(t *testing.T) {
	w, costs := testWorkloadAndCosts(t, 400, 4)
	var total float64
	for _, c := range costs {
		total += c
	}
	c := Cluster(w, costs, 40)
	if c.Size() == 0 || c.Size() > 40 {
		t.Fatalf("cluster size = %d", c.Size())
	}
	var approx float64
	for i, id := range c.IDs {
		approx += c.Weights[i] * costs[id]
	}
	if math.Abs(approx-total)/total > 1e-9 {
		t.Errorf("weighted mass %v vs total %v", approx, total)
	}
	if c.DistanceComputations < w.Size() {
		t.Error("distance accounting missing")
	}
}

func TestClusterCoversTemplatesBetterThanTopCost(t *testing.T) {
	w, costs := testWorkloadAndCosts(t, 1000, 5)
	top := TopCost(w, costs, 0.2)
	cl := Cluster(w, costs, top.Size())
	if cl.TemplateCoverage(w) < top.TemplateCoverage(w) {
		t.Errorf("clustering coverage %d below top-cost coverage %d",
			cl.TemplateCoverage(w), top.TemplateCoverage(w))
	}
}

func TestClusterEdgeCases(t *testing.T) {
	w, costs := testWorkloadAndCosts(t, 30, 6)
	if Cluster(w, costs, 0).Size() != 0 {
		t.Error("k=0 keeps nothing")
	}
	big := Cluster(w, costs, 1000)
	if big.Size() > w.Size() {
		t.Error("k > N must clamp")
	}
}

func TestRandomSample(t *testing.T) {
	w, _ := testWorkloadAndCosts(t, 200, 7)
	perm := stats.NewRNG(9).Perm(w.Size())
	c := RandomSample(w, 50, perm)
	if c.Size() != 50 {
		t.Fatalf("size = %d", c.Size())
	}
	for _, wgt := range c.Weights {
		if wgt != 4 { // 200/50
			t.Errorf("weight = %v, want 4", wgt)
		}
	}
	seen := map[int]bool{}
	for _, id := range c.IDs {
		if seen[id] {
			t.Fatal("duplicate in sample")
		}
		seen[id] = true
	}
}
