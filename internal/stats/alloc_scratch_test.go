package stats

import (
	"reflect"
	"testing"
)

// TestNeymanStallHighestWeightFirst pins the rounding-stall fallback: the
// leftover samples must go to the highest-weight strata first, as the
// comment always claimed (the pre-fix code handed them out in index
// order). Three equal-size strata whose weights order 1 > 2 > 0; n=2
// floors every proportional share to zero, so both leftovers ride the
// fallback and must land on strata 1 and 2, leaving stratum 0 empty.
func TestNeymanStallHighestWeightFirst(t *testing.T) {
	strata := []Stratum{
		{Size: 10, S2: 1}, // weight 10
		{Size: 10, S2: 4}, // weight 20 — highest
		{Size: 10, S2: 2}, // weight ~14.1
	}
	got := neyman(strata, 2, 0)
	want := []int{0, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stall fallback allocation = %v, want %v", got, want)
	}
}

// TestHandOutByWeightMultiPass: when the remainder exceeds what a single
// descending-weight pass can place one-by-one, the handout restarts the
// order, so extra units stack on the heaviest strata first.
func TestHandOutByWeightMultiPass(t *testing.T) {
	strata := []Stratum{
		{Size: 10, S2: 1},
		{Size: 10, S2: 9}, // weight 30 — heaviest
		{Size: 10, S2: 4}, // weight 20
	}
	alloc := make([]int, 3)
	capLeft := []int{1, 2, 2}
	remaining := 4
	handOutByWeight(strata, alloc, capLeft, &remaining)
	if remaining != 0 {
		t.Fatalf("remaining = %d, want 0", remaining)
	}
	// Pass 1 serves 1→2→0 (descending weight); pass 2 serves 1 again.
	if want := []int{1, 2, 1}; !reflect.DeepEqual(alloc, want) {
		t.Fatalf("multi-pass handout = %v, want %v", alloc, want)
	}
}

// TestHandOutByWeightStopsAtCapacity: the handout must terminate when
// every stratum is full even if the remainder is not exhausted.
func TestHandOutByWeightStopsAtCapacity(t *testing.T) {
	strata := []Stratum{{Size: 5, S2: 1}, {Size: 5, S2: 2}}
	alloc := make([]int, 2)
	capLeft := []int{1, 1}
	remaining := 5
	handOutByWeight(strata, alloc, capLeft, &remaining)
	if remaining != 3 {
		t.Fatalf("remaining = %d, want 3", remaining)
	}
	if want := []int{1, 1}; !reflect.DeepEqual(alloc, want) {
		t.Fatalf("capacity-bounded handout = %v, want %v", alloc, want)
	}
}

func randomStrata(rng *RNG, L int) []Stratum {
	out := make([]Stratum, L)
	for h := range out {
		out[h] = Stratum{Size: 1 + rng.Intn(500), S2: rng.Float64() * 100}
		if rng.Intn(8) == 0 {
			out[h].S2 = 0
		}
	}
	return out
}

// TestNeymanAllocationIntoMatches: reused (dirty) buffers must yield
// the same allocation as fresh ones on randomized inputs — the split
// search's probes reuse one pair of buffers across every call.
func TestNeymanAllocationIntoMatches(t *testing.T) {
	rng := NewRNG(9)
	dst := []int{}
	capLeft := []int{}
	for it := 0; it < 500; it++ {
		L := 1 + rng.Intn(10)
		strata := randomStrata(rng, L)
		n := rng.Intn(3000)
		nmin := rng.Intn(10)
		want := neyman(strata, n, nmin)
		got := NeymanAllocationInto(dst, capLeft, strata, n, nmin)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: reused buffers = %v, fresh = %v", it, got, want)
		}
		dst, capLeft = got, growInts(capLeft, L) // reuse dirty buffers next round
	}
}

// TestMinSamplesScratchMatches: a precomputed loHint equal to the
// structural floor must give the same result as the internally derived
// floor, with the scratch buffers reused across calls.
func TestMinSamplesScratchMatches(t *testing.T) {
	rng := NewRNG(23)
	var sc AllocScratch
	for it := 0; it < 500; it++ {
		L := 1 + rng.Intn(10)
		strata := randomStrata(rng, L)
		nmin := rng.Intn(10)
		n := 1 + rng.Intn(2000)
		targetVar := StratifiedVariance(strata, neyman(strata, n, nmin)) * (0.5 + rng.Float64())
		want := minSamples(strata, targetVar, nmin)
		floor := 0
		for _, st := range strata {
			floor += min(nmin, st.Size)
		}
		if got := MinSamplesForVarianceScratch(strata, targetVar, nmin, &sc, floor); got != want {
			t.Fatalf("case %d: scratch (loHint=%d) = %d, derived floor = %d", it, floor, got, want)
		}
	}
}

// TestMinSamplesScratchZeroAlloc pins the probe path at zero heap
// allocations once the scratch buffers are warm.
func TestMinSamplesScratchZeroAlloc(t *testing.T) {
	strata := []Stratum{{Size: 4000, S2: 30}, {Size: 2500, S2: 4}, {Size: 900, S2: 90}}
	targetVar := StratifiedVariance(strata, neyman(strata, 700, 5))
	var sc AllocScratch
	MinSamplesForVarianceScratch(strata, targetVar, 5, &sc, 0) // warm up
	avg := testing.AllocsPerRun(100, func() {
		MinSamplesForVarianceScratch(strata, targetVar, 5, &sc, 0)
	})
	if avg != 0 {
		t.Fatalf("warm MinSamplesForVarianceScratch allocates %v per run, want 0", avg)
	}
}

func BenchmarkNeymanAllocation(b *testing.B) {
	rng := NewRNG(5)
	strata := randomStrata(rng, 16)
	dst := make([]int, len(strata))
	capLeft := make([]int, len(strata))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NeymanAllocationInto(dst, capLeft, strata, 2000, 4)
	}
}

func BenchmarkMinSamplesForVariance(b *testing.B) {
	rng := NewRNG(5)
	strata := randomStrata(rng, 16)
	targetVar := StratifiedVariance(strata, neyman(strata, 1200, 4))
	var sc AllocScratch
	MinSamplesForVarianceScratch(strata, targetVar, 4, &sc, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MinSamplesForVarianceScratch(strata, targetVar, 4, &sc, 0)
	}
}
