package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestVariances(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := PopulationVariance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("PopulationVariance = %v, want 4", got)
	}
	if got := SampleVariance(xs); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Errorf("SampleVariance = %v, want %v", got, 32.0/7.0)
	}
	if SampleVariance([]float64{5}) != 0 {
		t.Error("SampleVariance of singleton should be 0")
	}
	if PopulationVariance(nil) != 0 {
		t.Error("PopulationVariance(nil) should be 0")
	}
}

// The identity the paper's Delta Sampling analysis rests on (Section 4.2):
// σ²_{l,j} = σ²_l + σ²_j − 2·Cov_{l,j}.
func TestDeltaVarianceIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 5 + r.Intn(200)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			base := r.Float64() * 100
			xs[i] = base + r.NormFloat64()*5
			ys[i] = base + r.NormFloat64()*5
		}
		diff := make([]float64, n)
		for i := range diff {
			diff[i] = xs[i] - ys[i]
		}
		lhs := PopulationVariance(diff)
		rhs := PopulationVariance(xs) + PopulationVariance(ys) - 2*PopulationCovariance(xs, ys)
		return almostEq(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCovariancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched lengths")
		}
	}()
	PopulationCovariance([]float64{1}, []float64{1, 2})
}

func TestFisherSkew(t *testing.T) {
	if FisherSkew([]float64{3, 3, 3}) != 0 {
		t.Error("constant population must have zero skew")
	}
	sym := []float64{-2, -1, 0, 1, 2}
	if got := FisherSkew(sym); math.Abs(got) > 1e-12 {
		t.Errorf("symmetric population skew = %v, want 0", got)
	}
	// A population with one large outlier must be strongly right-skewed.
	skewed := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 100}
	if got := FisherSkew(skewed); got < 2 {
		t.Errorf("outlier population skew = %v, want > 2", got)
	}
	// Mirroring flips the sign exactly.
	mirrored := make([]float64, len(skewed))
	for i, v := range skewed {
		mirrored[i] = -v
	}
	if a, b := FisherSkew(skewed), FisherSkew(mirrored); !almostEq(a, -b, 1e-12) {
		t.Errorf("mirror skew: %v vs %v", a, b)
	}
}
