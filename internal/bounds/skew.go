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
//  2. hill-climb single endpoint flips from it (localSkewSearch, which
//     decides most flips from Pow-free skew brackets with a proven error
//     bound, and every flip exactly as evaluating m3/Pow(m2, 1.5) would);
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
//
// A flip is taken when its skew exceeds the incumbent's by more than
// 1e-15, with both skews the exact value skewOf gives for their sums:
// m3/Pow(m2, 1.5). Most flips are decided without the Pow, and every
// decision is the one the exact comparison makes:
//
//   - skewBracket forms m2 and m3 exactly as skewOf does and brackets the
//     exact skew by g ± (1e-12·|g| + 1e-300), g the cheap m3/(m2·√m2).
//     For m2 in [1e-200, 1e200], m2^1.5 is a normal float under both
//     formulas. Go's Pow(x, 1.5) is Ldexp(Exp(0.5·Log x)·frac(x), exp(x)),
//     which is off by at most 0.5·|ln x|·2⁻⁵² (≤ 6e-14 there) plus a few
//     ulps, and m2·√m2 by two ulps, so the two quotients differ by under
//     1e-13 relative, plus subnormal rounding that the 1e-300 term covers.
//   - The incumbent is kept as such a bracket too, made exact only when
//     needed. Since x ↦ fl(x + 1e-15) is monotone, a flip whose upper end
//     is ≤ fl(lo + 1e-15) of the incumbent's bracket loses the exact
//     comparison, and one whose lower end is > fl(hi + 1e-15) wins it.
//   - Otherwise, or when m2 lies outside the window or the cheap skew is
//     not finite, both skews are made exact and compared exactly.
//
// The returned skew is computed exactly from the final incumbent's sums,
// so it, the flips taken and the count tried are bit-identical to a climb
// that evaluates skewOf on every flip (testdata/skew.golden).
//
//physdes:zeroalloc
func localSkewSearch(ivs []Interval, values []float64) (float64, int) {
	n := len(values)
	fn := float64(n)
	var s1, s2, s3 float64
	for _, v := range values {
		s1 += v
		s2 += v * v
		s3 += v * v * v
	}
	// [blo, bhi] brackets the incumbent's exact skew; blo == bhi once
	// exact (a NaN incumbent is recomputed, and stays NaN).
	blo, bhi, ok := skewBracket(s1, s2, s3, fn)
	if !ok {
		blo = skewOf(s1, s2, s3, fn)
		bhi = blo
	}
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
			lo, hi, ok := skewBracket(na, nb, nc, fn)
			switch {
			case ok && hi <= blo+1e-15:
				continue
			case ok && lo > bhi+1e-15:
				blo, bhi = lo, hi
			default:
				if blo != bhi {
					blo = skewOf(s1, s2, s3, fn)
					bhi = blo
				}
				g := skewOf(na, nb, nc, fn)
				if !(g > blo+1e-15) {
					continue
				}
				blo, bhi = g, g
			}
			values[i] = alt
			s1, s2, s3 = na, nb, nc
			improved = true
		}
		if !improved {
			break
		}
	}
	if blo != bhi {
		blo = skewOf(s1, s2, s3, fn)
	}
	return blo, tried
}

// skewMoments returns the second and third central moments of n values
// from their raw power sums a = Σv, b = Σv², c = Σv³.
//
//physdes:zeroalloc
func skewMoments(a, b, c, fn float64) (m2, m3 float64) {
	mu := a / fn
	m2 = b/fn - mu*mu
	m3 = c/fn - 3*mu*b/fn + 2*mu*mu*mu
	return m2, m3
}

// skewOf is the Fisher skew of n values from their raw power sums: 0 when
// the second moment is not positive.
//
//physdes:zeroalloc
func skewOf(a, b, c, fn float64) float64 {
	m2, m3 := skewMoments(a, b, c, fn)
	if m2 <= 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// skewBracket brackets skewOf(a, b, c, fn) without a Pow (see
// localSkewSearch for the error budget). It reports ok false when m2 is
// outside [1e-200, 1e200] or the cheap skew is not finite.
//
//physdes:zeroalloc
func skewBracket(a, b, c, fn float64) (lo, hi float64, ok bool) {
	m2, m3 := skewMoments(a, b, c, fn)
	if m2 <= 0 {
		return 0, 0, true
	}
	if m2 < 1e-200 || m2 > 1e200 {
		return 0, 0, false
	}
	g := m3 / (m2 * math.Sqrt(m2))
	if !(math.Abs(g) <= math.MaxFloat64) {
		return 0, 0, false
	}
	h := math.Abs(g)*1e-12 + 1e-300
	return g - h, g + h, true
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
		if cltFloor > 0 && n/4 >= cltFloor { // n >= 4·cltFloor, without overflow
			return 0, false
		}
		return sigma2Max, true
	}
}
