package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// tiny returns parameters small enough for unit tests.
func tiny() Params {
	return Params{
		TPCDQueries: 900,
		CRMQueries:  700,
		Repeats:     60,
		Ks:          []int{6},
		SigmaN:      2_000,
		Seed:        5,
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	q := Quick()
	if p.TPCDQueries != q.TPCDQueries || p.Repeats != q.Repeats {
		t.Errorf("defaults should be Quick(): %+v", p)
	}
	ps := PaperScale()
	if ps.TPCDQueries != 13_000 || ps.Repeats != 5_000 || ps.SigmaN != 100_000 {
		t.Errorf("paper scale wrong: %+v", ps)
	}
}

func TestScenarios(t *testing.T) {
	p := tiny()
	tp, err := TPCDScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if tp.W.Size() != p.TPCDQueries || len(tp.Candidates) == 0 {
		t.Errorf("tpcd scenario: %d queries, %d candidates", tp.W.Size(), len(tp.Candidates))
	}
	crm, err := CRMScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if crm.W.Size() != p.CRMQueries {
		t.Errorf("crm scenario size %d", crm.W.Size())
	}
	if crm.W.NumTemplates() <= 100 {
		t.Errorf("crm templates = %d, want >100", crm.W.NumTemplates())
	}
}

func TestPairs(t *testing.T) {
	p := tiny()
	s, err := TPCDScenario(p)
	if err != nil {
		t.Fatal(err)
	}

	easy := EasyPair(s, p.Seed)
	if easy.Gap <= 0 {
		t.Errorf("easy pair gap = %v, want positive", easy.Gap)
	}
	// Figure 1's C1 contains views; C2 is index-only.
	if len(easy.Configs[0].Views()) == 0 {
		t.Log("note: tuner chose no views for C1 at this scale")
	}
	if len(easy.Configs[1].Views()) != 0 {
		t.Error("C2 must be index-only")
	}

	hard := HardPair(s, p.Seed)
	if hard.Overlap <= 0.5 {
		t.Errorf("hard pair overlap = %v, want > 0.5 (shared structures)", hard.Overlap)
	}
	if hard.Gap > easy.Gap {
		t.Logf("note: hard gap %v exceeds easy gap %v at this scale", hard.Gap, easy.Gap)
	}

	crm, err := CRMScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	dis := DisjointPair(crm, p.Seed)
	if dis.Overlap > 0.5 {
		t.Errorf("disjoint pair overlap = %v, want small", dis.Overlap)
	}
}

// The Figure 1/3 shape: Delta Sampling dominates Independent Sampling at
// small budgets, and Pr(CS) rises with the budget.
func TestFigureShape(t *testing.T) {
	p := tiny()
	s, err := TPCDScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	pair := HardPair(s, p.Seed)
	series := MonteCarlo(pair, FigureVariants(), []int64{60, 200, 600}, p.Repeats,
		s.W.Partition(), p.Seed)
	if len(series) != 4 {
		t.Fatalf("series count %d", len(series))
	}
	byName := map[string][]MCPoint{}
	for _, sr := range series {
		byName[sr.Variant.Name] = sr.Points
	}
	// Averaged across the sweep, Delta must beat Independent.
	avg := func(pts []MCPoint) float64 {
		var v float64
		for _, pt := range pts {
			v += pt.TruePrCS
		}
		return v / float64(len(pts))
	}
	if avg(byName["Delta"]) <= avg(byName["Independent"]) {
		t.Errorf("delta %.3f should beat independent %.3f",
			avg(byName["Delta"]), avg(byName["Independent"]))
	}
	// Largest budget should do at least as well as the smallest for the
	// best scheme (tolerate MC noise).
	dpts := byName["Delta"]
	if dpts[len(dpts)-1].TruePrCS+0.1 < dpts[0].TruePrCS {
		t.Errorf("delta curve decreasing: %+v", dpts)
	}

	var buf bytes.Buffer
	PrintSeries(&buf, "Figure test", series)
	if !strings.Contains(buf.String(), "Delta") {
		t.Error("PrintSeries output missing scheme names")
	}
}

func TestMultiConfigShape(t *testing.T) {
	p := tiny()
	s, err := TPCDScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := MultiConfigAll(s, p)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	prim, _ := findRow(rows, MethodPrimitive, 6)
	noStrat, _ := findRow(rows, MethodNoStrat, 6)
	equal, _ := findRow(rows, MethodEqualAlloc, 6)
	cons, _ := findRow(rows, MethodConservative, 6)
	// The conservative variant must be at least as accurate as the plain
	// primitive and never worse in worst-case error.
	if cons.TruePrCS < prim.TruePrCS-0.02 {
		t.Errorf("conservative (%.3f) below plain primitive (%.3f)", cons.TruePrCS, prim.TruePrCS)
	}
	if cons.MaxDelta > prim.MaxDelta+1e-9 {
		t.Errorf("conservative MaxΔ %.3f worse than plain %.3f", cons.MaxDelta, prim.MaxDelta)
	}
	// The primitive must track its α=0.9 target (paper: "matches the
	// target probability α closely or exceeds it").
	if prim.TruePrCS < 0.8 {
		t.Errorf("primitive true Pr(CS) = %.3f, want ≥ 0.8", prim.TruePrCS)
	}
	// And dominate the baselines at equal sample counts.
	if prim.TruePrCS < noStrat.TruePrCS-0.05 || prim.TruePrCS < equal.TruePrCS-0.05 {
		t.Errorf("primitive %.3f should dominate baselines %.3f / %.3f",
			prim.TruePrCS, noStrat.TruePrCS, equal.TruePrCS)
	}
	// Its worst-case error should be no worse than the baselines'.
	if prim.MaxDelta > noStrat.MaxDelta+0.05 {
		t.Errorf("primitive MaxΔ %.3f worse than no-strat %.3f", prim.MaxDelta, noStrat.MaxDelta)
	}

	var buf bytes.Buffer
	PrintMultiRows(&buf, "Table test", rows, p.Ks)
	if !strings.Contains(buf.String(), "True Pr(CS)") {
		t.Error("PrintMultiRows output malformed")
	}
}

func TestTable1Shape(t *testing.T) {
	p := tiny()
	rows, err := Table1(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// DP table grows ≈10× per ρ step.
	if rows[1].Cells < rows[0].Cells*5 || rows[2].Cells < rows[1].Cells*5 {
		t.Errorf("cells not scaling ~10x: %d %d %d", rows[0].Cells, rows[1].Cells, rows[2].Cells)
	}
	// θ shrinks with ρ.
	if !(rows[0].Theta > rows[1].Theta && rows[1].Theta > rows[2].Theta) {
		t.Errorf("theta not shrinking: %v %v %v", rows[0].Theta, rows[1].Theta, rows[2].Theta)
	}
	var buf bytes.Buffer
	PrintSigmaRows(&buf, rows)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("PrintSigmaRows malformed")
	}
}

func TestCLTRequirementShape(t *testing.T) {
	small, err := CLTRequirement(2_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := CLTRequirement(20_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The required *fraction* shrinks as the workload grows (the paper's
	// 4% at 13K vs <0.6% at 131K); absolute minimum stays comparable.
	if big.Fraction >= small.Fraction {
		t.Errorf("fraction should shrink with N: %.3f%% at %d vs %.3f%% at %d",
			100*small.Fraction, small.N, 100*big.Fraction, big.N)
	}
	if small.MinSamples <= 28 {
		t.Errorf("skewed population should need more than the floor: %d", small.MinSamples)
	}
	var buf bytes.Buffer
	PrintCLTRows(&buf, []CLTRow{small, big})
	if !strings.Contains(buf.String(), "Equation 9") {
		t.Error("PrintCLTRows malformed")
	}
}

func TestCompressionComparisonShape(t *testing.T) {
	p := tiny()
	s, err := TPCDScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := CompressionComparison(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMethod := map[string]CompressionRow{}
	for _, r := range rows {
		byMethod[strings.SplitN(r.Method, " ", 2)[0]] = r
	}
	top := byMethod["TopCost[20]"]
	rand := byMethod["Random"]
	cl := byMethod["Cluster[5]"]
	ds := byMethod["Delta-sample"]
	// Random samples beat top-cost compression (the paper: ≥2×; we require
	// strictly better).
	if rand.Improvement <= top.Improvement {
		t.Errorf("samples (%.3f) should beat top-cost (%.3f)", rand.Improvement, top.Improvement)
	}
	// Template coverage tells the story.
	if rand.TemplateCoverage <= top.TemplateCoverage {
		t.Errorf("sample coverage %d should exceed top-cost coverage %d",
			rand.TemplateCoverage, top.TemplateCoverage)
	}
	// Clustering needs quadratic-flavoured preprocessing; the delta sample
	// needs none.
	if cl.DistanceComputations == 0 || ds.DistanceComputations != 0 {
		t.Error("distance accounting wrong")
	}
	// Delta sample quality comparable to clustering (within 10 points).
	if ds.Improvement < cl.Improvement-0.10 {
		t.Errorf("delta sample %.3f far below clustering %.3f", ds.Improvement, cl.Improvement)
	}
	var buf bytes.Buffer
	PrintCompressionRows(&buf, rows)
	if !strings.Contains(buf.String(), "7.3") {
		t.Error("PrintCompressionRows malformed")
	}
}

func TestDefaultBudgetsMonotone(t *testing.T) {
	b := DefaultBudgets(13_000)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("budgets not increasing: %v", b)
		}
	}
	if b[0] < 44 {
		t.Error("minimum budget must cover the pilot")
	}
}

func TestBatchingComparison(t *testing.T) {
	p := tiny()
	s, err := TPCDScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	pair := HardPair(s, p.Seed)
	row, err := BatchingComparison(s, pair, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("batching: batch size %d ⇒ %d measurements vs primitive %d calls",
		row.BatchSize, row.TotalMeasurements, row.PrimitiveCalls)
	if row.BatchSize < 2 {
		t.Errorf("skewed diffs should need batches > 1, got %d", row.BatchSize)
	}
	// The related-work claim: batching's measurement bill exceeds the
	// primitive's.
	if int64(row.TotalMeasurements) <= row.PrimitiveCalls {
		t.Errorf("batching bill %d should exceed primitive %d",
			row.TotalMeasurements, row.PrimitiveCalls)
	}
}

func TestScalingShape(t *testing.T) {
	p := tiny()
	s, err := TPCDScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Scaling(s, []int{200, 450, 900}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The exhaustive bill grows linearly; the primitive's spend must not:
	// the fraction has to shrink as N grows.
	if rows[2].Fraction >= rows[0].Fraction {
		t.Errorf("fraction should shrink with N: %.3f at %d vs %.3f at %d",
			rows[0].Fraction, rows[0].N, rows[2].Fraction, rows[2].N)
	}
	// The absolute call count must grow far slower than N (≤2× while N
	// grows 4.5×).
	if rows[2].AvgCalls > rows[0].AvgCalls*2 {
		t.Errorf("calls scaling too steep: %.0f at %d vs %.0f at %d",
			rows[0].AvgCalls, rows[0].N, rows[2].AvgCalls, rows[2].N)
	}
}

func TestEliminationAblationShape(t *testing.T) {
	p := tiny()
	p.Repeats = 30
	s, err := TPCDScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := EliminationAblation(s, 8, p)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	off, on := rows[0], rows[1]
	// Elimination must cut calls substantially without wrecking accuracy.
	if on.AvgCalls >= off.AvgCalls {
		t.Errorf("elimination did not reduce calls: %v vs %v", on.AvgCalls, off.AvgCalls)
	}
	if on.TruePrCS < off.TruePrCS-0.15 {
		t.Errorf("elimination cost too much accuracy: %v vs %v", on.TruePrCS, off.TruePrCS)
	}
	if on.AvgValue <= 0 {
		t.Error("no configurations eliminated in the 'on' arm")
	}
	if off.AvgValue != 0 {
		t.Error("configurations eliminated with elimination off")
	}
}

func TestStabilityAblationShape(t *testing.T) {
	p := tiny()
	p.Repeats = 30
	s, err := TPCDScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := StabilityAblation(s, 4, p)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Window 10 samples at least as much as window 1 (footnote 4's
	// over-sampling).
	if rows[1].AvgCalls < rows[0].AvgCalls {
		t.Errorf("window 10 (%v calls) should not undercut window 1 (%v)",
			rows[1].AvgCalls, rows[0].AvgCalls)
	}
}

func TestRhoSweepShape(t *testing.T) {
	p := tiny()
	rows, err := RhoSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Theta >= rows[i-1].Theta {
			t.Errorf("θ not shrinking: %v at ρ=%v after %v", rows[i].Theta, rows[i].Rho, rows[i-1].Theta)
		}
	}
}

func TestFigureHelperAndFig2Variants(t *testing.T) {
	p := tiny()
	p.Repeats = 20
	s, err := TPCDScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	pair := EasyPair(s, p.Seed)
	series := Figure(s, pair, Fig2Variants(), p)
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	names := map[string]bool{}
	for _, sr := range series {
		names[sr.Variant.Name] = true
		if len(sr.Points) == 0 {
			t.Errorf("variant %s has no points", sr.Variant.Name)
		}
	}
	if !names["Delta+Fine"] || !names["Delta+Progressive"] {
		t.Errorf("Fig2 variants missing: %v", names)
	}
}

func TestCSVWriters(t *testing.T) {
	dir := t.TempDir()
	series := []MCSeries{{
		Variant: SchemeVariant{Name: "Delta"},
		Points:  []MCPoint{{Budget: 44, TruePrCS: 0.5}, {Budget: 100, TruePrCS: 0.9}},
	}}
	if err := WriteSeriesCSV(dir, "fig", series); err != nil {
		t.Fatal(err)
	}
	rows := []MultiRow{{Method: MethodPrimitive, K: 10, TruePrCS: 0.95, MaxDelta: 0.01, AvgCalls: 100}}
	if err := WriteMultiCSV(dir, "table", rows); err != nil {
		t.Fatal(err)
	}
	if err := WriteSigmaCSV(dir, "sigma", []SigmaRow{{N: 10, Rho: 1, Sigma2: 2, Theta: 3, Cells: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteScalingCSV(dir, "scaling", []ScalingRow{{N: 10, AvgCalls: 5, ExhaustiveCall: 20, Fraction: 0.25, TruePrCS: 1}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig", "table", "sigma", "scaling"} {
		data, err := osReadFile(dir + "/" + name + ".csv")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s.csv empty", name)
		}
	}
}

func osReadFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}
