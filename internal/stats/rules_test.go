package stats

import (
	"math"
	"testing"
)

func TestCochranRules(t *testing.T) {
	if got := CochranMinSamples(2); got != 101 {
		t.Errorf("CochranMinSamples(2) = %d, want 101", got)
	}
	if got := ModifiedCochranMinSamples(2); got != 129 {
		t.Errorf("ModifiedCochranMinSamples(2) = %d, want 129", got)
	}
	if got := ModifiedCochranMinSamples(0); got != 29 {
		t.Errorf("ModifiedCochranMinSamples(0) = %d, want 29", got)
	}
}

// TestCochranRulesSaturate pins the floors' saturation: a skew past
// ~6e8 (25·G1² beyond the int64 range) or a NaN skew must demand the cap,
// not wrap to a negative floor that switches the guard off.
func TestCochranRulesSaturate(t *testing.T) {
	for _, g1 := range []float64{1e9, -1e9, math.Inf(1), math.NaN()} {
		if got := CochranMinSamples(g1); got != math.MaxInt32 {
			t.Errorf("CochranMinSamples(%v) = %d, want %d", g1, got, math.MaxInt32)
		}
		if got := ModifiedCochranMinSamples(g1); got != math.MaxInt32 {
			t.Errorf("ModifiedCochranMinSamples(%v) = %d, want %d", g1, got, math.MaxInt32)
		}
	}
	// Just below the cap the floor is still exact.
	if got := CochranMinSamples(9000); got != 2_025_000_001 {
		t.Errorf("CochranMinSamples(9000) = %d, want 2025000001", got)
	}
}

func TestCLTApplicable(t *testing.T) {
	if CLTApplicable(28, 0) {
		t.Error("n=28, g1=0 should not satisfy n > 28")
	}
	if !CLTApplicable(29, 0) {
		t.Error("n=29, g1=0 should satisfy n > 28")
	}
	if CLTApplicable(100, 2) { // needs > 128
		t.Error("n=100, g1=2 should fail")
	}
	if !CLTApplicable(129, 2) {
		t.Error("n=129, g1=2 should pass")
	}
}

func TestPairwisePrCS(t *testing.T) {
	// gap = 0, δ = 0: coin flip.
	if got := PairwisePrCS(0, 0, 1); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("PrCS(0,0,1) = %v, want 0.5", got)
	}
	// Large gap relative to se: near certainty.
	if got := PairwisePrCS(10, 0, 1); got < 0.999 {
		t.Errorf("PrCS(10,0,1) = %v, want ~1", got)
	}
	// δ adds slack.
	a := PairwisePrCS(1, 0, 1)
	b := PairwisePrCS(1, 2, 1)
	if b <= a {
		t.Errorf("larger δ should raise PrCS: %v <= %v", b, a)
	}
	// Zero standard error: deterministic.
	if PairwisePrCS(1, 0, 0) != 1 {
		t.Error("PrCS with zero se and positive gap should be 1")
	}
	if PairwisePrCS(-1, 0, 0) != 0 {
		t.Error("PrCS with zero se and negative gap+δ should be 0")
	}
}

func TestTargetVarianceForPrCSInvertsPairwise(t *testing.T) {
	gap, delta, target := 5.0, 1.0, 0.9
	v := TargetVarianceForPrCS(gap, delta, target)
	se := math.Sqrt(v)
	if got := PairwisePrCS(gap, delta, se); !almostEq(got, target, 1e-9) {
		t.Errorf("PrCS at target variance = %v, want %v", got, target)
	}
	// Slightly more variance must fall below the target.
	if got := PairwisePrCS(gap, delta, se*1.01); got >= target {
		t.Errorf("PrCS above target variance = %v, should be < %v", got, target)
	}
}

func TestTargetVarianceForPrCSEdges(t *testing.T) {
	if v := TargetVarianceForPrCS(5, 0, 0.5); !math.IsInf(v, 1) {
		t.Errorf("target 0.5 should be reachable at any variance, got %v", v)
	}
	if v := TargetVarianceForPrCS(-1, 0, 0.9); v != 0 {
		t.Errorf("negative gap with target > 0.5 should be unreachable, got %v", v)
	}
}

func TestNMinConstant(t *testing.T) {
	if NMin != 30 {
		t.Errorf("NMin = %d, paper's rule of thumb is 30", NMin)
	}
}
