package optimizer_test

import (
	"fmt"
	"math"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

var wobbleCat = catalog.TPCD(0.01)

func wobbleAnalyze(t *testing.T, src string) *sqlparse.Analysis {
	t.Helper()
	st, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sqlparse.Analyze(st, wobbleCat.Resolve)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The per-query cost variability ("path wobble") must create genuine
// within-template cost variance — the property that makes fine
// stratification and equal allocation imperfect at small sample sizes, as
// in the paper's Figure 2.
func TestWithinTemplateVariance(t *testing.T) {
	w, err := workload.GenTPCD(wobbleCat, 600, 77)
	if err != nil {
		t.Fatal(err)
	}
	o := optimizer.New(wobbleCat)
	cfg := physical.NewConfiguration("cfg",
		physical.NewIndex("lineitem", []string{"l_shipdate"}),
		physical.NewIndex("orders", []string{"o_orderdate"}))
	perTemplate := make(map[uint64][]float64)
	for _, q := range w.Queries {
		key := uint64(q.Template)
		perTemplate[key] = append(perTemplate[key], o.Cost(q.Analysis, cfg))
	}
	withVariance := 0
	populated := 0
	for _, costs := range perTemplate {
		if len(costs) < 5 {
			continue
		}
		populated++
		cv := 0.0
		if m := stats.Mean(costs); m > 0 {
			cv = stats.SampleVariance(costs) / (m * m)
		}
		if cv > 1e-4 {
			withVariance++
		}
	}
	if populated == 0 {
		t.Fatal("no populated templates")
	}
	if withVariance < populated/2 {
		t.Errorf("only %d/%d templates show within-template cost variance", withVariance, populated)
	}
}

// The wobble must not destroy the cross-configuration covariance Delta
// Sampling leans on: per-query costs under two similar configurations stay
// strongly positively correlated.
func TestCrossConfigCovariancePositive(t *testing.T) {
	w, err := workload.GenTPCD(wobbleCat, 600, 78)
	if err != nil {
		t.Fatal(err)
	}
	o := optimizer.New(wobbleCat)
	c1 := physical.NewConfiguration("c1",
		physical.NewIndex("lineitem", []string{"l_shipdate"}),
		physical.NewIndex("orders", []string{"o_orderkey"}))
	c2 := c1.With("c2", physical.NewIndex("customer", []string{"c_custkey"}))
	m := workload.ComputeCostMatrix(o, w, []*physical.Configuration{c1, c2})
	x, y := m.Column(0), m.Column(1)
	cov := stats.PopulationCovariance(x, y)
	vx, vy := stats.PopulationVariance(x), stats.PopulationVariance(y)
	if vx <= 0 || vy <= 0 {
		t.Fatal("degenerate cost distributions")
	}
	corr := cov / (math.Sqrt(vx) * math.Sqrt(vy))
	if corr < 0.9 {
		t.Errorf("cross-config correlation = %.3f, want ≥ 0.9", corr)
	}
	// Consequently the diff variance collapses (σ²_{l,j} ≪ σ²_l + σ²_j).
	diff := make([]float64, len(x))
	for i := range diff {
		diff[i] = x[i] - y[i]
	}
	if dv := stats.PopulationVariance(diff); dv > (vx+vy)/4 {
		t.Errorf("diff variance %v not far below sum %v", dv, vx+vy)
	}
}

// Wobble determinism: the same statement must cost the same on every
// evaluation and across optimizer instances.
func TestWobbleDeterministic(t *testing.T) {
	a := wobbleAnalyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 123")
	cfg := physical.NewConfiguration("c", physical.NewIndex("lineitem", []string{"l_partkey"}))
	o1, o2 := optimizer.New(wobbleCat), optimizer.New(wobbleCat)
	if o1.Cost(a, cfg) != o2.Cost(a, cfg) {
		t.Error("cost not deterministic across optimizer instances")
	}
}

// Different literals of one template get different wobbles (almost surely).
func TestWobbleVariesWithLiterals(t *testing.T) {
	o := optimizer.New(wobbleCat)
	cfg := physical.NewConfiguration("empty")
	seen := make(map[float64]bool)
	for _, v := range []int{100, 200, 300, 400, 500} {
		a := wobbleAnalyze(t, fmt.Sprintf("SELECT l_quantity FROM lineitem WHERE l_shipdate < %d", v))
		seen[o.Cost(a, cfg)] = true
	}
	if len(seen) < 3 {
		t.Errorf("only %d distinct costs across 5 parameterizations", len(seen))
	}
}
