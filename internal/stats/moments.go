package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// PopulationVariance returns σ² = Σ(x−μ)²/N, the variance of xs viewed as a
// complete finite population. It returns 0 for fewer than one element.
func PopulationVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return ss / float64(n)
}

// SampleVariance returns s² = Σ(x−x̄)²/(n−1), the unbiased estimator of the
// variance of the distribution xs was drawn from. It returns 0 for fewer
// than two elements.
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return ss / float64(n-1)
}

// PopulationCovariance returns Cov(x,y) = Σ(xᵢ−μx)(yᵢ−μy)/N over two equal
// length populations. It panics if the lengths differ.
func PopulationCovariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: covariance requires equal-length slices")
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n)
}

// FisherSkew returns G1, Fisher's moment coefficient of skewness of xs viewed
// as a population: m3 / m2^(3/2) where mk is the k-th central moment. It
// returns 0 when the variance is 0 (or the slice has fewer than 2 elements),
// matching the convention that a constant population has no skew.
func FisherSkew(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mu := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - mu
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= float64(n)
	m3 /= float64(n)
	if m2 <= 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}
