package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		z, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
		{-6, 9.865876450376946e-10},
	}
	for _, c := range cases {
		got := NormalCDF(c.z)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalCDFMonotone(t *testing.T) {
	prev := -1.0
	for z := -8.0; z <= 8.0; z += 0.01 {
		v := NormalCDF(z)
		if v < prev {
			t.Fatalf("NormalCDF not monotone at z=%v: %v < %v", z, v, prev)
		}
		prev = v
	}
}

func TestNormalPDFIntegratesToCDF(t *testing.T) {
	// Trapezoid integration of the density φ should track the CDF.
	pdf := func(z float64) float64 { return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi) }
	const dz = 1e-3
	acc := NormalCDF(-8)
	for z := -8.0; z < 3.0; z += dz {
		acc += dz * (pdf(z) + pdf(z+dz)) / 2
	}
	if math.Abs(acc-NormalCDF(3)) > 1e-6 {
		t.Errorf("integral of pdf = %v, CDF(3) = %v", acc, NormalCDF(3))
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for p := 1e-10; p < 1; p += 0.001 {
		z := NormalQuantile(p)
		back := NormalCDF(z)
		if math.Abs(back-p) > 1e-10 {
			t.Fatalf("roundtrip failed at p=%v: quantile=%v cdf=%v", p, z, back)
		}
	}
}

func TestNormalQuantileEdgeCases(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile(1) should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("NormalQuantile outside [0,1] should be NaN")
	}
	if v := NormalQuantile(0.5); math.Abs(v) > 1e-14 {
		t.Errorf("NormalQuantile(0.5) = %v, want 0", v)
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	f := func(u float64) bool {
		p := math.Abs(math.Mod(u, 1))
		if p <= 0 || p >= 1 {
			return true
		}
		a, b := NormalQuantile(p), NormalQuantile(1-p)
		return math.Abs(a+b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
