package catalog

import (
	"math"
	"testing"
	"testing/quick"

	"physdes/internal/stats"
)

func uniformHist(n, buckets int) *Histogram {
	return BuildHistogram(n, buckets, func(int) float64 { return 1 / float64(n) })
}

func TestHistogramUniformEq(t *testing.T) {
	h := uniformHist(1000, 100)
	for _, v := range []float64{1, 500, 1000} {
		got := h.EqSelectivity(v)
		if math.Abs(got-0.001) > 2e-4 {
			t.Errorf("EqSelectivity(%v) = %v, want ~0.001", v, got)
		}
	}
	if h.EqSelectivity(0) != 0 || h.EqSelectivity(1001) != 0 {
		t.Error("out-of-domain equality should be 0")
	}
}

func TestHistogramUniformRange(t *testing.T) {
	h := uniformHist(1000, 100)
	got := h.RangeSelectivity(1, 1000)
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("full-range selectivity = %v", got)
	}
	got = h.RangeSelectivity(1, 100)
	if math.Abs(got-0.1) > 0.02 {
		t.Errorf("10%% range selectivity = %v", got)
	}
	if h.RangeSelectivity(5, 2) != 0 {
		t.Error("inverted range should be 0")
	}
	if h.RangeSelectivity(2000, 3000) != 0 {
		t.Error("out-of-domain range should be 0")
	}
	// Half-open ranges.
	got = h.RangeSelectivity(math.Inf(-1), 500)
	if math.Abs(got-0.5) > 0.02 {
		t.Errorf("≤500 selectivity = %v", got)
	}
	got = h.RangeSelectivity(901, math.Inf(1))
	if math.Abs(got-0.1) > 0.02 {
		t.Errorf("≥901 selectivity = %v", got)
	}
}

func TestHistogramZipfSkew(t *testing.T) {
	z := stats.NewZipfGen(10_000, 1)
	h := BuildHistogram(10_000, 200, z.PMF)
	// Rank 1 must be far more selective than rank 9999. (Equi-depth smears
	// inside buckets, but rank 1's bucket is tiny under θ=1 skew.)
	hot := h.EqSelectivity(1)
	cold := h.EqSelectivity(9999)
	if hot < cold*10 {
		t.Errorf("skewed histogram: hot=%v cold=%v, want hot ≫ cold", hot, cold)
	}
	// The hot estimate should be within 3x of the true PMF.
	truePMF := z.PMF(1)
	if hot > truePMF*3 || hot < truePMF/3 {
		t.Errorf("hot estimate %v vs true %v", hot, truePMF)
	}
}

func TestHistogramRangeAdditive(t *testing.T) {
	// Property: sel(lo,hi) ≈ sel(lo,m) + sel(m+1,hi).
	z := stats.NewZipfGen(5000, 1)
	h := BuildHistogram(5000, 150, z.PMF)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		lo := 1 + r.Intn(4000)
		hi := lo + r.Intn(5000-lo)
		if hi <= lo {
			return true
		}
		m := lo + r.Intn(hi-lo)
		whole := h.RangeSelectivity(float64(lo), float64(hi))
		split := h.RangeSelectivity(float64(lo), float64(m)) +
			h.RangeSelectivity(float64(m+1), float64(hi))
		return math.Abs(whole-split) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramRangeMonotone(t *testing.T) {
	h := uniformHist(1000, 50)
	prev := 0.0
	for hi := 10; hi <= 1000; hi += 10 {
		s := h.RangeSelectivity(1, float64(hi))
		if s+1e-12 < prev {
			t.Fatalf("range selectivity not monotone at hi=%d: %v < %v", hi, s, prev)
		}
		prev = s
	}
}

func TestHistogramSmallDomain(t *testing.T) {
	h := uniformHist(3, 200)
	if h.Buckets() > 3 {
		t.Errorf("buckets = %d for 3-value domain", h.Buckets())
	}
	var sum float64
	for v := 1; v <= 3; v++ {
		sum += h.EqSelectivity(float64(v))
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("eq selectivities sum to %v", sum)
	}
}

func TestColumnHistogramCaching(t *testing.T) {
	c1 := Column{Name: "a", Distinct: 777, Skew: 1}
	c2 := Column{Name: "b", Distinct: 777, Skew: 1}
	h1 := ColumnHistogram(c1)
	h2 := ColumnHistogram(c2)
	if h1 != h2 {
		t.Error("identical stats should share a cached histogram")
	}
	c3 := Column{Name: "c", Distinct: 777, Skew: 0.5}
	if ColumnHistogram(c3) == h1 {
		t.Error("different skew must not share a histogram")
	}
}

func TestColumnHistogramZeroDistinct(t *testing.T) {
	h := ColumnHistogram(Column{Name: "z", Distinct: 0})
	if h.EqSelectivity(1) <= 0 {
		t.Error("degenerate column should still give positive selectivity for its single value")
	}
}

// rangeSelectivityFullScan is the reference RangeSelectivity: it visits
// every bucket and skips the ones outside [l, u]. The skipped buckets
// contribute nothing, so the bounded walk must add the same terms in the
// same order and match it bit for bit.
func rangeSelectivityFullScan(h *Histogram, lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	l := math.Max(1, math.Ceil(lo))
	u := math.Min(float64(h.n), math.Floor(hi))
	if u < l {
		return 0
	}
	var sel float64
	prevBound := 0
	for b := range h.bounds {
		bl, bu := float64(prevBound+1), float64(h.bounds[b])
		prevBound = h.bounds[b]
		if bu < l || bl > u {
			continue
		}
		ol := math.Max(bl, l)
		ou := math.Min(bu, u)
		width := bu - bl + 1
		sel += h.fracs[b] * (ou - ol + 1) / width
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// TestRangeSelectivityMatchesFullScan pins the bounded bucket walk to the
// full-scan reference, bit for bit, over random and edge-case ranges on
// skewed, uniform and tiny domains.
func TestRangeSelectivityMatchesFullScan(t *testing.T) {
	z := stats.NewZipfGen(5000, 1)
	hists := []struct {
		name string
		h    *Histogram
	}{
		{"zipf", BuildHistogram(5000, DefaultBuckets, z.PMF)},
		{"uniform", uniformHist(1000, 100)},
		{"tiny", uniformHist(3, 200)},
		{"single", uniformHist(50, 1)},
	}
	inf := math.Inf(1)
	for idx, tc := range hists {
		name, h := tc.name, tc.h
		n := float64(h.n)
		b0 := float64(h.bounds[0])
		edges := [][2]float64{
			{-inf, inf}, {-inf, 1}, {n, inf}, {-inf, -inf}, {inf, inf},
			{-10, 0}, {n + 1, n + 50}, {0, 0.5}, {n + 0.5, n + 0.7},
			{1, 1}, {n, n}, {1, b0}, {b0, b0}, {b0 + 1, b0 + 1},
			{2.5, 2.5}, {2.2, 2.8}, {7, 3}, {inf, -inf}, {-5, n + 5},
		}
		for _, r := range edges {
			if got, want := h.RangeSelectivity(r[0], r[1]), rangeSelectivityFullScan(h, r[0], r[1]); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: RangeSelectivity(%v, %v) = %v, full scan %v", name, r[0], r[1], got, want)
			}
		}
		rng := stats.NewRNG(uint64(idx + 1))
		for i := 0; i < 2000; i++ {
			lo := rng.Float64()*(n+20) - 10
			hi := rng.Float64()*(n+20) - 10
			if i%3 == 0 {
				lo, hi = math.Floor(lo), math.Floor(hi)
			}
			if got, want := h.RangeSelectivity(lo, hi), rangeSelectivityFullScan(h, lo, hi); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: RangeSelectivity(%v, %v) = %v, full scan %v", name, lo, hi, got, want)
			}
		}
	}
}
