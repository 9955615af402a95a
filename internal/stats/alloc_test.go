package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// neyman is NeymanAllocationInto over fresh buffers.
func neyman(strata []Stratum, n, perStratumMin int) []int {
	return NeymanAllocationInto(nil, nil, strata, n, perStratumMin)
}

// minSamples is MinSamplesForVarianceScratch over a fresh scratch with
// the floor derived internally.
func minSamples(strata []Stratum, targetVar float64, perStratumMin int) int {
	var sc AllocScratch
	return MinSamplesForVarianceScratch(strata, targetVar, perStratumMin, &sc, 0)
}

func TestStratifiedVarianceSingleStratumMatchesSRS(t *testing.T) {
	// With one stratum equation 5 degenerates to the simple-random-sampling
	// variance N²·S²/n·(1−n/N).
	st := []Stratum{{Size: 1000, S2: 7.5}}
	got := StratifiedVariance(st, []int{50})
	want := 1000.0 * 1000.0 * 7.5 / 50.0 * (1 - 50.0/1000.0)
	if !almostEq(got, want, 1e-12) {
		t.Errorf("got %v want %v", got, want)
	}
}

// TestStratumVarFreshFPC: the finite-population correction counts only
// the fresh samples, so prior observations pooled into n shrink s²/n
// without shrinking (1 − fresh/W), and a fresh census leaves no variance.
func TestStratumVarFreshFPC(t *testing.T) {
	if got, want := StratumVar(100, 4, 20, 10), 100.0*100.0*4/20*(1-10.0/100); got != want {
		t.Errorf("StratumVar(100, 4, 20, 10) = %v, want %v", got, want)
	}
	if got := StratumVar(100, 4, 130, 100); got != 0 {
		t.Errorf("fresh census StratumVar = %v, want 0", got)
	}
}

func TestStratifiedVarianceFullCensusIsZero(t *testing.T) {
	st := []Stratum{{Size: 10, S2: 3}, {Size: 20, S2: 9}}
	if v := StratifiedVariance(st, []int{10, 20}); v != 0 {
		t.Errorf("census variance = %v, want 0", v)
	}
}

func TestStratifiedVarianceZeroAllocIsInf(t *testing.T) {
	st := []Stratum{{Size: 10, S2: 3}}
	if v := StratifiedVariance(st, []int{0}); !math.IsInf(v, 1) {
		t.Errorf("zero allocation variance = %v, want +Inf", v)
	}
}

func TestStratifiedVariancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	StratifiedVariance([]Stratum{{Size: 1}}, []int{1, 2})
}

func TestNeymanAllocationProportions(t *testing.T) {
	// Classic example: allocation proportional to W_h * S_h.
	st := []Stratum{
		{Size: 1000, S2: 100}, // weight 1000*10 = 10000
		{Size: 1000, S2: 1},   // weight 1000*1  = 1000
	}
	alloc := neyman(st, 110, 0)
	total := alloc[0] + alloc[1]
	if total < 110 {
		t.Fatalf("allocated %d < requested 110", total)
	}
	// Expect roughly a 10:1 split.
	if alloc[0] < 90 || alloc[1] > 20 {
		t.Errorf("allocation %v not close to Neyman proportions", alloc)
	}
}

func TestNeymanAllocationRespectsMinimumAndCapacity(t *testing.T) {
	st := []Stratum{
		{Size: 5, S2: 1000}, // tiny stratum with huge variance
		{Size: 1000, S2: 1},
	}
	alloc := neyman(st, 100, 3)
	if alloc[0] > 5 {
		t.Errorf("stratum 0 over-allocated: %d > size 5", alloc[0])
	}
	if alloc[1] < 3 {
		t.Errorf("stratum 1 below per-stratum minimum: %d", alloc[1])
	}
	if alloc[0]+alloc[1] < 100 {
		t.Errorf("total %d < 100 despite capacity", alloc[0]+alloc[1])
	}
}

func TestNeymanAllocationZeroVarianceStrata(t *testing.T) {
	st := []Stratum{{Size: 50, S2: 0}, {Size: 50, S2: 0}}
	alloc := neyman(st, 40, 0)
	if alloc[0]+alloc[1] < 40 {
		t.Errorf("zero-variance strata under-allocated: %v", alloc)
	}
}

func TestNeymanAllocationNeverExceedsPopulation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		L := 1 + r.Intn(6)
		st := make([]Stratum, L)
		total := 0
		for h := range st {
			st[h] = Stratum{Size: 1 + r.Intn(50), S2: r.Float64() * 100}
			total += st[h].Size
		}
		n := r.Intn(total + 20)
		alloc := neyman(st, n, r.Intn(3))
		sum := 0
		for h, a := range alloc {
			if a < 0 || a > st[h].Size {
				return false
			}
			sum += a
		}
		want := n
		if want > total {
			want = total
		}
		return sum >= want || sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Stratification with Neyman allocation can never be worse than lumping
// everything into a single stratum with the pooled variance, for the same
// total sample size — the textbook result progressive stratification
// (Section 5.1) relies on.
func TestNeymanBeatsPooledSRS(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		// Build a two-template population with very different means.
		n1, n2 := 50+r.Intn(200), 50+r.Intn(200)
		pop := make([]float64, 0, n1+n2)
		s1 := make([]float64, n1)
		s2 := make([]float64, n2)
		for i := range s1 {
			s1[i] = 10 + r.Float64()*2
			pop = append(pop, s1[i])
		}
		for i := range s2 {
			s2[i] = 1000 + r.Float64()*20
			pop = append(pop, s2[i])
		}
		N := len(pop)
		strata := []Stratum{
			{Size: n1, S2: SampleVariance(s1)},
			{Size: n2, S2: SampleVariance(s2)},
		}
		pooled := []Stratum{{Size: N, S2: SampleVariance(pop)}}
		n := 20 + r.Intn(40)
		vStrat := StratifiedVariance(strata, neyman(strata, n, 2))
		vPool := StratifiedVariance(pooled, neyman(pooled, n, 2))
		return vStrat <= vPool*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMinSamplesForVariance(t *testing.T) {
	st := []Stratum{{Size: 10000, S2: 25}}
	target := 1e6
	n := minSamples(st, target, 30)
	if n < 30 {
		t.Fatalf("n=%d below per-stratum minimum", n)
	}
	v := StratifiedVariance(st, neyman(st, n, 30))
	if v > target {
		t.Errorf("variance %v at n=%d exceeds target %v", v, n, target)
	}
	if n > 30 {
		vPrev := StratifiedVariance(st, neyman(st, n-1, 30))
		if vPrev <= target {
			t.Errorf("n=%d not minimal: n-1 already reaches target (%v <= %v)", n, vPrev, target)
		}
	}
}

func TestMinSamplesForVarianceUnreachable(t *testing.T) {
	st := []Stratum{{Size: 100, S2: 25}}
	if n := minSamples(st, -1, 1); n != 100 {
		t.Errorf("unreachable target should return population size, got %d", n)
	}
}

func TestMinSamplesForVarianceEmpty(t *testing.T) {
	if n := minSamples(nil, 10, 1); n != 0 {
		t.Errorf("empty strata should need 0 samples, got %d", n)
	}
}

func TestMinSamplesMonotoneInTarget(t *testing.T) {
	st := []Stratum{{Size: 5000, S2: 100}, {Size: 3000, S2: 10}}
	prev := math.MaxInt
	for _, target := range []float64{1e4, 1e5, 1e6, 1e7, 1e8} {
		n := minSamples(st, target, 30)
		if n > prev {
			t.Errorf("looser target %v needs more samples (%d > %d)", target, n, prev)
		}
		prev = n
	}
}
