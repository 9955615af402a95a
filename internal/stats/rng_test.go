package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("Intn(10) value %d appeared %d/100000 times", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	if m := Mean(xs); math.Abs(m) > 0.02 {
		t.Errorf("normal mean = %v", m)
	}
	if v := SampleVariance(xs); math.Abs(v-1) > 0.03 {
		t.Errorf("normal variance = %v", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := NewRNG(17)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		counts[r.Perm(5)[0]]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Errorf("Perm(5)[0]=%d appeared %d/50000", v, c)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := NewRNG(19)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Errorf("shuffle lost elements: %v", xs)
	}
}

func TestZipfGen(t *testing.T) {
	z := NewZipfGen(100, 1.0)
	if z.N() != 100 {
		t.Errorf("N = %d", z.N())
	}
	// PMF sums to 1 and is decreasing in rank.
	var sum float64
	prev := math.Inf(1)
	for k := 1; k <= 100; k++ {
		p := z.PMF(k)
		if p > prev+1e-15 {
			t.Errorf("PMF not decreasing at rank %d: %v > %v", k, p, prev)
		}
		prev = p
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PMF sums to %v", sum)
	}
	if z.PMF(0) != 0 || z.PMF(101) != 0 {
		t.Error("PMF outside support should be 0")
	}

	// Empirical frequency of rank 1 should be near its PMF.
	r := NewRNG(29)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Draw(r)
		if v < 1 || v > 100 {
			t.Fatalf("Zipf draw out of range: %d", v)
		}
		if v == 1 {
			hits++
		}
	}
	want := z.PMF(1)
	got := float64(hits) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("rank-1 frequency %v, want ~%v", got, want)
	}
}

func TestZipfGenThetaZeroIsUniform(t *testing.T) {
	z := NewZipfGen(10, 0)
	for k := 1; k <= 10; k++ {
		if p := z.PMF(k); math.Abs(p-0.1) > 1e-9 {
			t.Errorf("theta=0 PMF(%d) = %v, want 0.1", k, p)
		}
	}
}

func TestZipfGenPanicsOnEmptySupport(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewZipfGen(0, 1)
}
