package sampling

import (
	"math"
	"testing"

	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// synthMatrix builds a synthetic cost matrix with per-template base costs
// and configuration offsets, mimicking the structure real workloads show:
// template determines magnitude, configurations shift costs coherently
// (positive covariance).
func synthMatrix(n, k, templates int, gapFrac, noise float64, seed uint64) (*workload.CostMatrix, workload.Partition) {
	rng := stats.NewRNG(seed)
	tmplIdx := make([]int, n)
	tmplBase := make([]float64, templates)
	for t := range tmplBase {
		tmplBase[t] = math.Pow(10, 1+3*float64(t)/float64(templates)) // 10 … 10⁴
	}
	m := &workload.CostMatrix{Costs: make([][]float64, n)}
	for j := 0; j < k; j++ {
		m.Configs = append(m.Configs, physical.NewConfiguration("C"))
	}
	cfgFactor := make([]float64, k)
	for j := range cfgFactor {
		// config 0 is best; others are worse by gapFrac, 2·gapFrac, …
		cfgFactor[j] = 1 + gapFrac*float64(j)
	}
	for i := 0; i < n; i++ {
		t := rng.Intn(templates)
		tmplIdx[i] = t
		base := tmplBase[t] * (1 + noise*rng.NormFloat64()*0.1)
		if base < 1 {
			base = 1
		}
		row := make([]float64, k)
		for j := 0; j < k; j++ {
			row[j] = base * cfgFactor[j] * (1 + noise*0.05*rng.NormFloat64())
			if row[j] < 0.1 {
				row[j] = 0.1
			}
		}
		m.Costs[i] = row
	}
	return m, workload.NewPartition(tmplIdx)
}

func baseOpts(seed uint64) Options {
	return Options{RNG: stats.NewRNG(seed)}
}

func TestRunValidation(t *testing.T) {
	m, _ := synthMatrix(100, 2, 4, 0.1, 1, 1)
	if _, err := Run(NewMatrixOracle(m), Options{}); err == nil {
		t.Error("missing RNG should error")
	}
	single := m.SubsetColumns([]int{0})
	if _, err := Run(NewMatrixOracle(single), baseOpts(1)); err == nil {
		t.Error("k<2 should error")
	}
	o := Options{RNG: stats.NewRNG(1), Strat: Progressive}
	if _, err := Run(NewMatrixOracle(m), o); err == nil {
		t.Error("stratification without Templates should error")
	}
}

func TestDeltaSelectsCorrectlyEasyPair(t *testing.T) {
	m, _ := synthMatrix(5000, 2, 8, 0.07, 1, 2)
	oracle := NewMatrixOracle(m)
	res, err := Run(oracle, Options{
		Scheme: Delta, Alpha: 0.95, RNG: stats.NewRNG(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != 0 {
		t.Errorf("selected %d, want 0", res.Best)
	}
	if res.PrCS < 0.95 {
		t.Errorf("PrCS = %v at termination", res.PrCS)
	}
	// Must be far cheaper than exact evaluation (2N calls).
	if res.OptimizerCalls >= int64(2*m.N()) {
		t.Errorf("no savings: %d calls", res.OptimizerCalls)
	}
	t.Logf("delta: %d sampled queries, %d calls (exact would be %d)",
		res.SampledQueries, res.OptimizerCalls, 2*m.N())
}

func TestIndependentSelectsCorrectlyEasyPair(t *testing.T) {
	m, _ := synthMatrix(5000, 2, 8, 0.10, 1, 4)
	res, err := Run(NewMatrixOracle(m), Options{
		Scheme: Independent, Alpha: 0.9, RNG: stats.NewRNG(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != 0 {
		t.Errorf("selected %d, want 0", res.Best)
	}
	if res.PrCS < 0.9 && res.OptimizerCalls < int64(2*m.N()) {
		t.Errorf("terminated early without reaching target: PrCS=%v calls=%d", res.PrCS, res.OptimizerCalls)
	}
}

// The headline claim of Section 4.2: with correlated costs, Delta Sampling
// reaches a correct selection with (far) fewer optimizer calls than
// Independent Sampling at equal call budgets.
func TestDeltaBeatsIndependentMonteCarlo(t *testing.T) {
	m, _ := synthMatrix(4000, 2, 8, 0.02, 1, 6)
	const budget = 240
	const runs = 300
	correct := map[Scheme]int{}
	for _, scheme := range []Scheme{Independent, Delta} {
		for r := 0; r < runs; r++ {
			oracle := NewMatrixOracle(m)
			res, err := Run(oracle, Options{
				Scheme: scheme, MaxCalls: budget, NMin: 20,
				RNG: stats.NewRNG(uint64(r)*7 + uint64(scheme) + 100),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Best == 0 {
				correct[scheme]++
			}
			if res.OptimizerCalls > budget {
				t.Fatalf("budget exceeded: %d > %d", res.OptimizerCalls, budget)
			}
		}
	}
	pInd := float64(correct[Independent]) / runs
	pDel := float64(correct[Delta]) / runs
	t.Logf("true Pr(CS): independent=%.3f delta=%.3f", pInd, pDel)
	if pDel <= pInd {
		t.Errorf("delta (%.3f) should beat independent (%.3f) on correlated costs", pDel, pInd)
	}
	if pDel < 0.8 {
		t.Errorf("delta Pr(CS) = %.3f, want ≥ 0.8 at this budget", pDel)
	}
}

// The estimators must be unbiased: across Monte-Carlo runs the mean of X_j
// should track the true total cost.
func TestEstimatorUnbiasedness(t *testing.T) {
	m, tmpls := synthMatrix(3000, 2, 6, 0.05, 1, 8)
	true0 := m.TotalCost(0)
	for _, mode := range []StratMode{NoStrat, Fine} {
		var sum float64
		const runs = 400
		for r := 0; r < runs; r++ {
			d := newDeltaSampler(NewMatrixOracle(m), Options{
				Scheme: Delta, Strat: mode, Alpha: 0.9, NMin: 10,
				MaxCalls: 600, RNG: stats.NewRNG(uint64(r) + 999),
				Templates: tmpls,
			}.withDefaults())
			for h := range d.strata {
				for d.strata[h].n < min(10, d.strata[h].size) {
					ok, err := d.draw(0, h)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
				}
			}
			sum += d.estimate(0)
		}
		got := sum / runs
		if math.Abs(got-true0)/true0 > 0.05 {
			t.Errorf("mode %v: estimator mean %v vs true %v (%.1f%% off)",
				mode, got, true0, 100*math.Abs(got-true0)/true0)
		}
	}
}

// Pr(CS) must be a conservative estimate: whenever the primitive reports
// PrCS ≥ α in adaptive mode, the empirical correct-selection rate across
// Monte-Carlo runs must be at least roughly α.
func TestPrCSCalibration(t *testing.T) {
	m, tmpls := synthMatrix(4000, 2, 6, 0.03, 1, 10)
	const runs = 300
	correct := 0
	var claimed float64
	for r := 0; r < runs; r++ {
		res, err := Run(NewMatrixOracle(m), Options{
			Scheme: Delta, Strat: Progressive, Alpha: 0.9,
			Templates: tmpls,
			RNG:       stats.NewRNG(uint64(r) + 5000),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == 0 {
			correct++
		}
		claimed += res.PrCS
	}
	empirical := float64(correct) / runs
	t.Logf("claimed PrCS ≈ %.3f, empirical %.3f", claimed/runs, empirical)
	if empirical < 0.85 { // α=0.9 with MC noise margin
		t.Errorf("empirical Pr(CS) %.3f far below claimed target 0.9", empirical)
	}
}

// Stratification must help when template costs differ by orders of
// magnitude (the Section 5 setting).
func TestStratificationReducesError(t *testing.T) {
	m, tmpls := synthMatrix(4000, 2, 10, 0.015, 3, 12)
	const budget = 400
	const runs = 300
	correct := map[StratMode]int{}
	for _, mode := range []StratMode{NoStrat, Progressive} {
		for r := 0; r < runs; r++ {
			res, err := Run(NewMatrixOracle(m), Options{
				Scheme: Delta, Strat: mode, MaxCalls: budget, NMin: 20,
				Templates: tmpls,
				RNG:       stats.NewRNG(uint64(r)*3 + 31),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Best == 0 {
				correct[mode]++
			}
		}
	}
	pNo := float64(correct[NoStrat]) / runs
	pProg := float64(correct[Progressive]) / runs
	t.Logf("true Pr(CS): nostrat=%.3f progressive=%.3f", pNo, pProg)
	if pProg < pNo-0.05 {
		t.Errorf("progressive stratification should not hurt: %.3f vs %.3f", pProg, pNo)
	}
}

func TestProgressiveSplitsHappen(t *testing.T) {
	m, tmpls := synthMatrix(4000, 2, 10, 0.01, 2, 14)
	res, err := Run(NewMatrixOracle(m), Options{
		Scheme: Delta, Strat: Progressive, MaxCalls: 2000, NMin: 20,
		Templates: tmpls,
		RNG:       stats.NewRNG(77),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Splits == 0 || res.Strata < 2 {
		t.Errorf("expected progressive splits at this budget: splits=%d strata=%d",
			res.Splits, res.Strata)
	}
}

func TestFineStratificationStartsPerTemplate(t *testing.T) {
	m, tmpls := synthMatrix(2000, 2, 12, 0.05, 1, 16)
	res, err := Run(NewMatrixOracle(m), Options{
		Scheme: Delta, Strat: Fine, MaxCalls: 300, NMin: 5,
		Templates: tmpls,
		RNG:       stats.NewRNG(78),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strata != 12 {
		t.Errorf("fine mode strata = %d, want 12", res.Strata)
	}
}

func TestEliminationDropsConfigs(t *testing.T) {
	// 10 configurations with widening gaps: the distant ones must be
	// eliminated while the near ones keep the sampler busy.
	m, tmpls := synthMatrix(4000, 10, 6, 0.01, 2, 18)
	res, err := Run(NewMatrixOracle(m), Options{
		Scheme: Delta, Strat: NoStrat, Alpha: 0.99, StabilityWindow: 10,
		EliminationThreshold: 0.995,
		Templates:            tmpls,
		RNG:                  stats.NewRNG(79),
	})
	if err != nil {
		t.Fatal(err)
	}
	elim := 0
	for _, e := range res.Eliminated {
		if e {
			elim++
		}
	}
	if elim == 0 {
		t.Error("no configurations eliminated despite wide gaps")
	}
	if res.Eliminated[res.Best] {
		t.Error("the selected configuration must never be eliminated")
	}
	if res.Best != 0 {
		t.Errorf("selected %d, want 0", res.Best)
	}
	t.Logf("eliminated %d/10, calls=%d", elim, res.OptimizerCalls)
}

func TestStabilityWindowOversamples(t *testing.T) {
	m, tmpls := synthMatrix(3000, 2, 6, 0.10, 1, 20)
	run := func(window int) int {
		res, err := Run(NewMatrixOracle(m), Options{
			Scheme: Delta, Alpha: 0.9, StabilityWindow: window,
			Templates: tmpls,
			RNG:       stats.NewRNG(80),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.SampledQueries
	}
	n1, n10 := run(1), run(10)
	if n10 < n1+9 {
		t.Errorf("stability window 10 should need ≥9 extra samples: %d vs %d", n10, n1)
	}
}

func TestDeltaSamplingExactWhenExhausted(t *testing.T) {
	// Tiny workload: the sampler sweeps everything and must report
	// certainty and the exact best configuration.
	m, tmpls := synthMatrix(40, 3, 2, 0.001, 5, 22)
	best, _ := m.BestConfig()
	res, err := Run(NewMatrixOracle(m), Options{
		Scheme: Delta, Alpha: 0.999999, StabilityWindow: 3,
		Templates: tmpls,
		RNG:       stats.NewRNG(81),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != best {
		t.Errorf("census selection %d differs from exact best %d", res.Best, best)
	}
	if res.PrCS != 1 {
		t.Errorf("census PrCS = %v, want 1", res.PrCS)
	}
}

func TestDeltaHandlesSensitivityDelta(t *testing.T) {
	// Two nearly identical configurations: with δ larger than the true
	// gap, the primitive should terminate quickly instead of sampling the
	// whole workload.
	m, tmpls := synthMatrix(5000, 2, 6, 0.001, 1, 24)
	gap := math.Abs(m.TotalCost(1) - m.TotalCost(0))
	res, err := Run(NewMatrixOracle(m), Options{
		Scheme: Delta, Alpha: 0.9, Delta: gap * 50,
		Templates: tmpls,
		RNG:       stats.NewRNG(82),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SampledQueries > m.N()/2 {
		t.Errorf("δ-insensitive comparison sampled %d of %d queries", res.SampledQueries, m.N())
	}
	resTight, err := Run(NewMatrixOracle(m), Options{
		Scheme: Delta, Alpha: 0.9, Delta: 0,
		Templates: tmpls,
		RNG:       stats.NewRNG(82),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resTight.SampledQueries < res.SampledQueries {
		t.Errorf("δ=0 should need at least as many samples: %d vs %d",
			resTight.SampledQueries, res.SampledQueries)
	}
}

func TestVarianceBoundMakesConservative(t *testing.T) {
	m, tmpls := synthMatrix(3000, 2, 6, 0.05, 1, 26)
	noBound, err := Run(NewMatrixOracle(m), Options{
		Scheme: Delta, Alpha: 0.9,
		Templates: tmpls,
		RNG:       stats.NewRNG(83),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A huge conservative bound forces more sampling.
	bounded, err := Run(NewMatrixOracle(m), Options{
		Scheme: Delta, Alpha: 0.9,
		Templates: tmpls,
		RNG:       stats.NewRNG(83),
		VarianceBound: func(int) (float64, bool) {
			return 1e9, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.SampledQueries <= noBound.SampledQueries {
		t.Errorf("conservative bound should force extra samples: %d vs %d",
			bounded.SampledQueries, noBound.SampledQueries)
	}
}

func TestRunTraced(t *testing.T) {
	m, tmpls := synthMatrix(2000, 2, 6, 0.05, 1, 28)
	opts := Options{
		Scheme: Delta, Alpha: 0.9,
		Templates: tmpls,
		RNG:       stats.NewRNG(84),
	}
	rec := traced(&opts)
	if _, err := Run(NewMatrixOracle(m), opts); err != nil {
		t.Fatal(err)
	}
	rounds := trajectory(rec)
	if len(rounds) == 0 {
		t.Error("trace empty")
	}
	for _, r := range rounds {
		if r.PrCS < 0 || r.PrCS > 1 {
			t.Fatalf("round %d Pr(CS) out of range: %v", r.Round, r.PrCS)
		}
	}
}

func TestIndependentEqualAllocMode(t *testing.T) {
	m, tmpls := synthMatrix(2000, 2, 8, 0.05, 1, 30)
	res, err := Run(NewMatrixOracle(m), Options{
		Scheme: Independent, Strat: EqualAlloc, MaxCalls: 400, NMin: 5,
		Templates: tmpls,
		RNG:       stats.NewRNG(85),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimizerCalls > 400 {
		t.Errorf("budget exceeded: %d", res.OptimizerCalls)
	}
	if res.Strata != 8 {
		t.Errorf("equal-alloc strata = %d, want 8", res.Strata)
	}
}

func TestMatrixOracleCounting(t *testing.T) {
	m, _ := synthMatrix(50, 2, 2, 0.1, 1, 32)
	o := NewMatrixOracle(m)
	if o.N() != 50 || o.K() != 2 {
		t.Errorf("oracle dims %d×%d", o.N(), o.K())
	}
	o.Cost(0, 0)
	o.Cost(1, 1)
	if o.Calls() != 2 {
		t.Errorf("Calls = %d", o.Calls())
	}
}

func TestSchemeStratModeStrings(t *testing.T) {
	if Independent.String() != "independent" || Delta.String() != "delta" {
		t.Error("Scheme names wrong")
	}
	if NoStrat.String() != "none" || Progressive.String() != "progressive" ||
		Fine.String() != "fine" || EqualAlloc.String() != "equal-alloc" {
		t.Error("StratMode names wrong")
	}
}
