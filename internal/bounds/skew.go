package bounds

import (
	"fmt"
	"math"

	"physdes/internal/stats"
)

// SkewMaxResult reports an approximate skew maximization.
type SkewMaxResult struct {
	// G1 is the largest Fisher skew found over endpoint assignments.
	G1 float64
	// UpperBound pads G1 by 10%; substitute it into the modified Cochran
	// rule for a conservative sample-size requirement.
	UpperBound float64
	// Assignments is the number of vertex evaluations the search made:
	// the all-Hi vertex, plus each hill-climb's starting vertex and every
	// single-endpoint flip it tried.
	Assignments int
}

// SkewMax approximates the maximum Fisher skew G1 over the box of cost
// intervals (Section 6.2 omits the description, and the complexity of
// exact G1 maximization is open). The third central moment, like the
// second, attains its box maximum at endpoint assignments, so the search
// runs over the vertex set:
//
//  1. evaluate the all-Hi vertex exactly;
//  2. hill-climb single endpoint flips from it (localSkewSearch);
//  3. hill-climb from 32 seeded random vertices (8 when n > 10,000),
//     keeping the best skew any climb reaches;
//  4. pad the best skew found by 10% of its magnitude.
//
// The all-Hi start is what a pivot-mean grid would find: for any pivot μ
// the assignment maximizing Σ(v−μ)³ takes every upper endpoint, since
// v ↦ (v−μ)³ is monotone (in IEEE arithmetic too), so every grid point
// would select the same vertex. rho is validated for compatibility with
// the σ²_max API but no longer shapes the skew search.
func SkewMax(ivs []Interval, rho float64) (SkewMaxResult, error) {
	n := len(ivs)
	if n == 0 {
		return SkewMaxResult{}, fmt.Errorf("bounds: no intervals")
	}
	if rho <= 0 {
		return SkewMaxResult{}, fmt.Errorf("bounds: rho must be positive, got %v", rho)
	}
	values := make([]float64, n)
	for i, iv := range ivs {
		if !iv.Valid() {
			return SkewMaxResult{}, fmt.Errorf("bounds: invalid interval %d: %+v", i, iv)
		}
		values[i] = iv.Hi
	}

	best := stats.FisherSkew(values)
	evals := 1
	if math.IsNaN(best) || math.IsInf(best, -1) {
		best = 0
	} else {
		// Hill-climb from the all-Hi vertex: it maximizes the numerator
		// for every pivot mean, but the true G1 optimum also trades
		// against the denominator. Multi-start (deterministic random
		// vertices) escapes local optima.
		g, tried := localSkewSearch(ivs, values)
		evals += tried
		if g > best {
			best = g
		}
		rng := stats.NewRNG(0x5eed)
		starts := 32
		if n > 10_000 {
			starts = 8
		}
		for s := 0; s < starts; s++ {
			for i, iv := range ivs {
				if rng.Float64() < 0.5 {
					values[i] = iv.Lo
				} else {
					values[i] = iv.Hi
				}
			}
			g, tried := localSkewSearch(ivs, values)
			evals += tried
			if g > best {
				best = g
			}
		}
	}
	// A 10% pad keeps the bound conservative against local optima the
	// climbs missed without inflating the Cochran requirement out of
	// usefulness.
	pad := math.Abs(best) * 0.1
	return SkewMaxResult{G1: best, UpperBound: best + pad, Assignments: evals}, nil
}

// localSkewSearch hill-climbs single endpoint flips until no flip improves
// the Fisher skew, maintaining raw moment sums so each candidate flip is
// O(1). It returns the improved skew and the number of vertices evaluated
// (the start plus every flip tried).
func localSkewSearch(ivs []Interval, values []float64) (float64, int) {
	n := len(values)
	fn := float64(n)
	var s1, s2, s3 float64
	for _, v := range values {
		s1 += v
		s2 += v * v
		s3 += v * v * v
	}
	g1 := func(a, b, c float64) float64 {
		mu := a / fn
		m2 := b/fn - mu*mu
		if m2 <= 0 {
			return 0
		}
		m3 := c/fn - 3*mu*b/fn + 2*mu*mu*mu
		return m3 / math.Pow(m2, 1.5)
	}
	best := g1(s1, s2, s3)
	tried := 1
	const maxSweeps = 50
	for sweep := 0; sweep < maxSweeps; sweep++ {
		improved := false
		for i, iv := range ivs {
			alt := iv.Lo
			if values[i] == iv.Lo {
				alt = iv.Hi
			}
			if alt == values[i] {
				continue
			}
			old := values[i]
			na := s1 - old + alt
			nb := s2 - old*old + alt*alt
			nc := s3 - old*old*old + alt*alt*alt
			tried++
			if g := g1(na, nb, nc); g > best+1e-15 {
				best = g
				values[i] = alt
				s1, s2, s3 = na, nb, nc
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return best, tried
}

// CLTMinSamples returns the minimum sample size required by the modified
// Cochran rule (Equation 9) for the conservative skew bound of the given
// intervals: n > 28 + 25·G1_max².
func CLTMinSamples(ivs []Interval, rho float64) (int, error) {
	res, err := SkewMax(ivs, rho)
	if err != nil {
		return 0, err
	}
	return stats.ModifiedCochranMinSamples(res.UpperBound), nil
}

// VarianceBoundRule is Section 6's one release rule for the σ²_max upper
// bound, in the shape of sampling.Options.VarianceBound: the bound stands
// in for a sample variance while the sample is small, and once n
// reaches four times the Equation 9 floor (CLTMinSamples) the sample
// clearly dominates and its own variance is trusted — the bound is loose
// by construction. A zero floor (none could be derived) never releases
// the bound.
func VarianceBoundRule(sigma2Max float64, cltFloor int) func(n int) (float64, bool) {
	return func(n int) (float64, bool) {
		if cltFloor > 0 && n >= 4*cltFloor {
			return 0, false
		}
		return sigma2Max, true
	}
}
