package stats

import "math"

// NMin is the standard rule-of-thumb pilot sample size after which Pr(CS)
// is first computed from the normality of the standardized statistic
// (Section 4.1 of the paper).
const NMin = 30

// ModifiedCochranMinSamples returns the minimum sample size under the
// modification of Cochran's rule proposed by Sugden, Smith et al. (2000) and
// adopted by the paper (Equation 9): the smallest integer n > 28 + 25·G1².
// The floor saturates at math.MaxInt32 (far above any workload size), and
// a NaN g1 (an unknown skew) saturates too: a plain int(math.Floor(x))
// turns huge and NaN x into math.MinInt64 on amd64, which would silently
// switch the floor off.
func ModifiedCochranMinSamples(g1 float64) int {
	x := 28 + 25*g1*g1
	if !(x < math.MaxInt32) {
		return math.MaxInt32
	}
	return int(math.Floor(x)) + 1
}

// PairwisePrCS computes the probability of a correct pairwise selection
// between the configuration with the smaller estimate and one alternative.
//
// It evaluates Pr(Δ > −δ/denom) = Φ(δ/denom + |standardized gap|⁻ ...); in
// the paper's decision procedure the chosen configuration is the one with
// the smaller estimate, so the probability of an incorrect selection is the
// probability that the true difference exceeds δ even though the estimated
// difference was ≤ 0. Conservatively (Section 4.1) this is bounded by
// evaluating the standardized statistic at μ = δ:
//
//	Pr(CS) ≥ Φ((gap + δ) / se)
//
// where gap = X_other − X_chosen ≥ 0 is the observed estimate difference and
// se is the standard error of the difference estimator. A zero or negative
// se means the estimator has no remaining variance: the selection is certain
// (probability 1) when gap+δ ≥ 0.
func PairwisePrCS(gap, delta, se float64) float64 {
	if se <= 0 {
		if gap+delta >= 0 {
			return 1
		}
		return 0
	}
	return NormalCDF((gap + delta) / se)
}

// TargetVarianceForPrCS inverts PairwisePrCS: it returns the largest
// standard-error-squared (variance of the difference estimator) for which a
// pairwise comparison with observed gap and sensitivity δ still reaches the
// probability target. It returns +Inf when the target is already met at any
// variance (target ≤ 0.5 with nonnegative gap+δ) and 0 when unreachable
// (gap+δ ≤ 0 with target > 0.5).
func TargetVarianceForPrCS(gap, delta, target float64) float64 {
	num := gap + delta
	z := NormalQuantile(target)
	if z <= 0 {
		return math.Inf(1)
	}
	if num <= 0 {
		return 0
	}
	se := num / z
	return se * se
}
