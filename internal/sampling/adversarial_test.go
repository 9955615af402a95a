package sampling

import (
	"testing"

	"physdes/internal/bounds"
	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// adversarialMatrix builds the Section 6 nightmare: configuration 0 is
// slightly cheaper on almost every query, but a tiny hidden fraction of
// queries is enormously cheaper under configuration 1, making 1 the true
// winner. A small sample almost never contains an outlier, so both the
// difference estimate and its sample variance point confidently the wrong
// way.
func adversarialMatrix(n int, seed uint64) (*workload.CostMatrix, int) {
	rng := stats.NewRNG(seed)
	m := &workload.CostMatrix{
		Costs: make([][]float64, n),
		Configs: []*physical.Configuration{
			physical.NewConfiguration("C0"),
			physical.NewConfiguration("C1"),
		},
	}
	outliers := n / 200 // 0.5%
	if outliers < 1 {
		outliers = 1
	}
	outlierSet := make(map[int]bool, outliers)
	for len(outlierSet) < outliers {
		outlierSet[rng.Intn(n)] = true
	}
	for i := 0; i < n; i++ {
		base := 10 + rng.Float64()*5
		if outlierSet[i] {
			// Hidden: C1 saves a fortune here.
			m.Costs[i] = []float64{base + 4000, base}
		} else {
			// Visible: C0 is slightly cheaper.
			m.Costs[i] = []float64{base, base + 1}
		}
	}
	// C1's total must win.
	if m.TotalCost(1) >= m.TotalCost(0) {
		panic("adversarial matrix mis-built")
	}
	return m, 1
}

// TestConservativeModeResistsHiddenOutliers is the failure-injection
// experiment: the naive primitive terminates early and picks wrongly most
// of the time; substituting the σ²_max bound (derived from cost intervals
// that cover the outliers) plus the Equation 9 sample floor forces enough
// sampling to recover the true winner — at a substantial, honest cost in
// optimizer calls.
func TestConservativeModeResistsHiddenOutliers(t *testing.T) {
	const n = 4000
	const runs = 40
	m, trueBest := adversarialMatrix(n, 5)

	// Cost intervals a Section 6.1 derivation would produce: every query's
	// cost may range up to the outlier scale under some configuration.
	ivs := make([]bounds.Interval, n)
	for i := range ivs {
		lo := m.Costs[i][0]
		if m.Costs[i][1] < lo {
			lo = m.Costs[i][1]
		}
		ivs[i] = bounds.Interval{Lo: 0, Hi: lo + 4001}
	}
	diff := bounds.DiffIntervals(ivs, ivs)
	vres, err := bounds.SigmaMaxDP(diff, 50)
	if err != nil {
		t.Fatal(err)
	}
	cltMin, err := bounds.CLTMinSamples(ivs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if cltMin <= 29 {
		t.Fatalf("adversarial intervals should demand a large CLT floor, got %d", cltMin)
	}

	run := func(conservative bool, seed uint64) (correct bool, sampled int) {
		opts := Options{
			Scheme: Delta, Alpha: 0.9, StabilityWindow: 3,
			RNG: stats.NewRNG(seed),
		}
		if conservative {
			opts.MinSamples = cltMin
			opts.VarianceBound = func(int) (float64, bool) {
				return vres.UpperBound, true
			}
		}
		res, err := Run(NewMatrixOracle(m), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Best == trueBest, res.SampledQueries
	}

	naiveCorrect, naiveSampled := 0, 0
	consCorrect, consSampled := 0, 0
	for r := 0; r < runs; r++ {
		ok, s := run(false, uint64(r)+100)
		if ok {
			naiveCorrect++
		}
		naiveSampled += s
		ok, s = run(true, uint64(r)+100)
		if ok {
			consCorrect++
		}
		consSampled += s
	}
	naiveRate := float64(naiveCorrect) / runs
	consRate := float64(consCorrect) / runs
	t.Logf("naive: correct %.2f, avg sampled %d; conservative: correct %.2f, avg sampled %d (CLT floor %d, σ²_max %.3g)",
		naiveRate, naiveSampled/runs, consRate, consSampled/runs, cltMin, vres.UpperBound)

	// The naive mode must be fooled most of the time — that is the threat
	// model (its claimed Pr(CS) ≥ 0.9 is invalid under hidden skew).
	if naiveRate > 0.5 {
		t.Errorf("naive mode too lucky (%.2f correct): the adversarial setup is broken", naiveRate)
	}
	// The conservative mode must do much better by sampling much more.
	if consRate < naiveRate+0.3 {
		t.Errorf("conservative mode (%.2f) not clearly safer than naive (%.2f)", consRate, naiveRate)
	}
	if consSampled <= naiveSampled*2 {
		t.Errorf("conservative mode should pay with extra samples: %d vs %d",
			consSampled/runs, naiveSampled/runs)
	}
}

// TestAdversarialSigmaBoundCoversTruth pins the mechanism: the true
// difference-population variance is gigantic (outlier-driven) while a small
// sample's variance is tiny; σ²_max must be at least the true variance.
func TestAdversarialSigmaBoundCoversTruth(t *testing.T) {
	const n = 2000
	m, _ := adversarialMatrix(n, 7)
	diffs := make([]float64, n)
	for i := range diffs {
		diffs[i] = m.Costs[i][0] - m.Costs[i][1]
	}
	trueVar := stats.PopulationVariance(diffs)

	ivs := make([]bounds.Interval, n)
	for i := range ivs {
		lo := m.Costs[i][0]
		if m.Costs[i][1] < lo {
			lo = m.Costs[i][1]
		}
		ivs[i] = bounds.Interval{Lo: 0, Hi: lo + 4001}
	}
	diffIvs := bounds.DiffIntervals(ivs, ivs)
	res, err := bounds.SigmaMaxDP(diffIvs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpperBound < trueVar {
		t.Errorf("σ²_max %.4g below the true variance %.4g", res.UpperBound, trueVar)
	}

	// A 30-query sample that misses every outlier sees a variance orders
	// of magnitude below the truth (the motivation for the bound).
	rng := stats.NewRNG(9)
	var sample []float64
	for len(sample) < 30 {
		i := rng.Intn(n)
		if diffs[i] < 100 { // skip outliers deliberately
			sample = append(sample, diffs[i])
		}
	}
	if sv := stats.SampleVariance(sample); sv*100 > trueVar {
		t.Errorf("outlier-free sample variance %.4g not far below truth %.4g", sv, trueVar)
	}
}
