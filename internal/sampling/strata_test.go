package sampling

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"physdes/internal/stats"
)

// neyman is stats.NeymanAllocationInto over fresh buffers.
func neyman(strata []stats.Stratum, n, nmin int) []int {
	return stats.NeymanAllocationInto(nil, nil, strata, n, nmin)
}

// minSamples is stats.MinSamplesForVarianceScratch over a fresh scratch
// with the floor derived internally.
func minSamples(strata []stats.Stratum, targetVar float64, nmin int) int {
	var sc stats.AllocScratch
	return stats.MinSamplesForVarianceScratch(strata, targetVar, nmin, &sc, 0)
}

// randomSplitInstance generates a seeded Algorithm 2 instance: 1–4
// strata of 1–8 templates each, with occasional exact mean ties,
// occasional strata without template estimates (nil tmplStats), and a
// target variance scattered around the reachable range.
func randomSplitInstance(rng *stats.RNG) ([]stats.Stratum, [][]tmplStat, float64, int) {
	L := 1 + rng.Intn(4)
	cur := make([]stats.Stratum, L)
	tstats := make([][]tmplStat, L)
	tid := 0
	total := 0
	for h := 0; h < L; h++ {
		T := 1 + rng.Intn(8)
		ts := make([]tmplStat, T)
		size := 0
		for i := range ts {
			w := 1 + rng.Intn(30)
			m := 10 * (1 + 9*rng.Float64())
			if i > 0 && rng.Intn(4) == 0 {
				m = ts[i-1].m // exact tie: exercises the t tie-break
			}
			v := rng.Float64() * m
			ts[i] = tmplStat{t: tid, w: w, m: m, v: v}
			tid++
			size += w
		}
		cur[h] = stats.Stratum{Size: size, S2: setS2(ts)}
		total += size
		if rng.Intn(5) == 0 {
			tstats[h] = nil // stratum lacking estimates
		} else {
			tstats[h] = ts
		}
	}
	nmin := 1 + rng.Intn(6)
	n := nmin*L + 1 + rng.Intn(total/2+1)
	targetVar := stats.StratifiedVariance(cur, neyman(cur, n, nmin)) * (0.5 + rng.Float64())
	return cur, tstats, targetVar, nmin
}

// TestFindBestSplitIncrementalEquivalence is the tentpole's safety net:
// on randomized workloads the incremental prefix-moment search must
// return decisions equal to the retained naive reference — same ok flag,
// same stratum, same gain, same left template set.
func TestFindBestSplitIncrementalEquivalence(t *testing.T) {
	rng := stats.NewRNG(42)
	var sc splitScratch // shared across cases: reuse must not leak state
	for it := 0; it < 300; it++ {
		cur, tstats, targetVar, nmin := randomSplitInstance(rng)
		wantDec, wantOK := findBestSplitNaive(cur, tstats, targetVar, nmin)
		gotDec, _, gotOK := findBestSplit(&sc, cur, tstats, targetVar, nmin)
		if gotOK != wantOK {
			t.Fatalf("case %d: ok=%v, naive ok=%v", it, gotOK, wantOK)
		}
		if !gotOK {
			continue
		}
		got := splitDecision{stratum: gotDec.stratum, left: append([]int(nil), gotDec.left...), gain: gotDec.gain}
		if !reflect.DeepEqual(got, wantDec) {
			t.Fatalf("case %d: incremental %+v, naive %+v", it, got, wantDec)
		}
	}
}

// TestFindBestSplitZeroAlloc pins the steady-state allocation count of
// the incremental search at exactly zero once the scratch is warm.
func TestFindBestSplitZeroAlloc(t *testing.T) {
	cur, tstats, targetVar, nmin := splitBenchFixture(128, 7)
	var sc splitScratch
	if _, _, ok := findBestSplit(&sc, cur, tstats, targetVar, nmin); !ok {
		t.Fatal("fixture found no split")
	}
	avg := testing.AllocsPerRun(100, func() {
		findBestSplit(&sc, cur, tstats, targetVar, nmin)
	})
	if avg != 0 {
		t.Fatalf("steady-state findBestSplit allocates %v per run, want 0", avg)
	}
}

// TestSetS2LargeMeanRobustness: with template means around 1e9 and unit
// variances, the plain Σw(m²+v) − (Σwm)²/W form loses all signal to
// cancellation (ulp at 1e18 is ~256). The compensated setS2 must agree
// with the shift-invariant reference computed on centered means instead
// of clamping a negative result to zero.
func TestSetS2LargeMeanRobustness(t *testing.T) {
	const base = 1e9
	ts := make([]tmplStat, 64)
	shifted := make([]tmplStat, len(ts))
	for i := range ts {
		d := 0.5 * float64(i) // base+d is exactly representable
		ts[i] = tmplStat{t: i, w: 10, m: base + d, v: 1}
		shifted[i] = tmplStat{t: i, w: 10, m: d, v: 1}
	}
	got := setS2(ts)
	want := setS2(shifted) // small magnitudes: no cancellation
	if want <= 1 {
		t.Fatalf("reference S² = %v, fixture is degenerate", want)
	}
	if rel := (got - want) / want; rel > 1e-9 || rel < -1e-9 {
		t.Fatalf("setS2 at mean 1e9 = %v, shifted reference %v (rel err %v)", got, want, rel)
	}
}

func benchmarkSplit(b *testing.B, T int, naive bool) {
	cur, tstats, targetVar, nmin := splitBenchFixture(T, 7)
	var sc splitScratch
	findBestSplit(&sc, cur, tstats, targetVar, nmin)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			findBestSplitNaive(cur, tstats, targetVar, nmin)
		} else {
			findBestSplit(&sc, cur, tstats, targetVar, nmin)
		}
	}
}

// BenchmarkFindBestSplit is the steady-state incremental search; CI
// gates on its allocs/op staying at zero.
func BenchmarkFindBestSplit(b *testing.B) {
	for _, T := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) { benchmarkSplit(b, T, false) })
	}
}

// BenchmarkFindBestSplitNaive is the retained O(T²) reference.
func BenchmarkFindBestSplitNaive(b *testing.B) {
	for _, T := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) { benchmarkSplit(b, T, true) })
	}
}

// splitBenchFixture builds a deterministic single-stratum Algorithm 2
// instance over T templates whose target variance puts the minimum
// sample size around a quarter of the population — large enough to open
// the alloc ≥ 2·n_min gate, small enough that every split point stays a
// genuine binary-search workload.
func splitBenchFixture(T int, seed uint64) ([]stats.Stratum, [][]tmplStat, float64, int) {
	rng := stats.NewRNG(seed)
	ts := make([]tmplStat, T)
	totalSize := 0
	for i := range ts {
		w := 4 + rng.Intn(24)
		m := math.Pow(10, 1+3*rng.Float64())
		sd := 0.1 * m
		v := sd * sd * (0.5 + rng.Float64())
		ts[i] = tmplStat{t: i, w: w, m: m, v: v}
		totalSize += w
	}
	cur := []stats.Stratum{{Size: totalSize, S2: setS2(ts)}}
	nmin := 8
	n := totalSize / 4
	if n < 2*nmin {
		n = 2 * nmin
	}
	targetVar := stats.StratifiedVariance(cur, neyman(cur, n, nmin))
	return cur, [][]tmplStat{ts}, targetVar, nmin
}

// findBestSplitNaive is the pre-optimization reference for
// findBestSplit: it recomputes the union moments of both children at
// every split point (O(T) each, O(T²) per stratum) and allocates freely.
// The incremental search must return decisions equal to this function's
// (TestFindBestSplitIncrementalEquivalence); it also anchors the
// split-search benchmarks.
func findBestSplitNaive(curStrata []stats.Stratum, tmplStats [][]tmplStat, targetVar float64, nmin int) (splitDecision, bool) {
	minSam := minSamples(curStrata, targetVar, nmin)
	alloc := neyman(curStrata, minSam, nmin)

	best := splitDecision{stratum: -1}
	for h := range curStrata {
		ts := tmplStats[h]
		if len(ts) < 2 {
			continue
		}
		if alloc[h] < 2*nmin {
			continue
		}
		// Order the stratum's templates by average cost (Algorithm 2,
		// line 9).
		ordered := append([]tmplStat(nil), ts...)
		sort.Slice(ordered, func(i, j int) bool {
			if ordered[i].m != ordered[j].m {
				return ordered[i].m < ordered[j].m
			}
			return ordered[i].t < ordered[j].t
		})

		// Candidate strata array with stratum h replaced by two children;
		// children sit at positions h and len(curStrata).
		cand := make([]stats.Stratum, len(curStrata)+1)
		copy(cand, curStrata)
		for split := 1; split < len(ordered); split++ {
			left, right := ordered[:split], ordered[split:]
			lSize, rSize := 0, 0
			for _, s := range left {
				lSize += s.w
			}
			for _, s := range right {
				rSize += s.w
			}
			cand[h] = stats.Stratum{Size: lSize, S2: setS2(left)}
			cand[len(curStrata)] = stats.Stratum{Size: rSize, S2: setS2(right)}
			sam := minSamples(cand, targetVar, nmin)
			if gain := minSam - sam; gain > best.gain {
				lt := make([]int, len(left))
				for i, s := range left {
					lt[i] = s.t
				}
				best = splitDecision{stratum: h, left: lt, gain: gain}
			}
		}
	}
	if best.stratum < 0 || best.gain <= 0 {
		return splitDecision{}, false
	}
	return best, true
}
