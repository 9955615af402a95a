package sampling

import (
	"testing"

	"physdes/internal/stats"
)

// With two strata of equal variance but very different optimization
// overheads, the Section 5.2 overhead weighting must pull samples toward
// the cheap stratum.
func TestCallCostShiftsAllocation(t *testing.T) {
	const n = 2000
	// Template 0 queries are cheap to optimize, template 1 queries are
	// 50× more expensive. Cost distributions are identical in shape.
	m, tmpls := synthMatrix(n, 2, 2, 0.02, 2, 44)
	callCost := func(q int) float64 {
		if tmpls.Of[q] == 1 {
			return 50
		}
		return 1
	}

	countByTemplate := func(withCost bool) [2]int {
		d := newDeltaSampler(NewMatrixOracle(m), Options{
			Scheme: Delta, Strat: Fine, NMin: 5, MaxCalls: 800,
			RNG:       stats.NewRNG(9),
			Templates: tmpls,
			CallCost:  map[bool]func(int) float64{true: callCost, false: nil}[withCost],
		}.withDefaults())
		d.run()
		var counts [2]int
		for _, tmpl := range d.rowTmpl[:d.nrows] {
			counts[tmpl]++
		}
		return counts
	}

	plain := countByTemplate(false)
	weighted := countByTemplate(true)
	t.Logf("allocation plain=%v overhead-weighted=%v", plain, weighted)

	// With weighting, the cheap template's share must grow.
	plainShare := float64(plain[0]) / float64(plain[0]+plain[1])
	weightedShare := float64(weighted[0]) / float64(weighted[0]+weighted[1])
	if weightedShare <= plainShare {
		t.Errorf("overhead weighting did not shift samples to the cheap stratum: %.2f vs %.2f",
			weightedShare, plainShare)
	}
}

// CallCost must not change the estimators, only the allocation: a constant
// overhead function is a no-op.
func TestConstantCallCostIsNoop(t *testing.T) {
	m, tmpls := synthMatrix(1500, 2, 4, 0.05, 1, 45)
	run := func(cc func(int) float64) (int, float64) {
		res, err := Run(NewMatrixOracle(m), Options{
			Scheme: Delta, Strat: Progressive, Alpha: 0.9,
			RNG:       stats.NewRNG(11),
			Templates: tmpls,
			CallCost:  cc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.SampledQueries, res.PrCS
	}
	n1, p1 := run(nil)
	n2, p2 := run(func(int) float64 { return 7 })
	if n1 != n2 || p1 != p2 {
		t.Errorf("constant CallCost changed the run: (%d, %v) vs (%d, %v)", n1, p1, n2, p2)
	}
}
