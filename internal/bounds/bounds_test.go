package bounds

import (
	"math"
	"testing"
	"testing/quick"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 2, Hi: 6}
	if !iv.Valid() || iv.Mid() != 4 || iv.Width() != 4 {
		t.Errorf("interval ops wrong: %+v", iv)
	}
	bad := []Interval{
		{Lo: 5, Hi: 2},
		{Lo: -1, Hi: 2},
		{Lo: math.NaN(), Hi: 2},
		{Lo: 0, Hi: math.Inf(1)},
	}
	for _, b := range bad {
		if b.Valid() {
			t.Errorf("interval %+v should be invalid", b)
		}
	}
}

func TestSigmaMaxDPDegenerate(t *testing.T) {
	// Point intervals: the variance is fixed; σ̂²_max equals it (up to
	// rounding) and θ is the only slack.
	ivs := []Interval{{1, 1}, {3, 3}, {5, 5}}
	res, err := SigmaMaxDP(ivs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.PopulationVariance([]float64{1, 3, 5})
	if math.Abs(res.Sigma2-want) > 1e-9 {
		t.Errorf("Sigma2 = %v, want %v", res.Sigma2, want)
	}
	if res.UpperBound < want {
		t.Error("upper bound below the true variance")
	}
}

func TestSigmaMaxDPErrors(t *testing.T) {
	if _, err := SigmaMaxDP(nil, 1); err == nil {
		t.Error("empty input should error")
	}
	if _, err := SigmaMaxDP([]Interval{{1, 2}}, 0); err == nil {
		t.Error("rho=0 should error")
	}
	if _, err := SigmaMaxDP([]Interval{{5, 1}}, 1); err == nil {
		t.Error("invalid interval should error")
	}
	// Table blowup guard.
	if _, err := SigmaMaxDP([]Interval{{0, 1e12}}, 1e-3); err == nil {
		t.Error("oversized DP table should error")
	}
}

// The core accuracy guarantee: the DP answer is within θ of the true
// σ²_max (checked against exhaustive vertex enumeration on small inputs).
func TestSigmaMaxDPWithinThetaOfExact(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(9)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rng.Float64() * 50
			ivs[i] = Interval{Lo: lo, Hi: lo + rng.Float64()*20}
		}
		exact, err := SigmaMaxExact(ivs)
		if err != nil {
			return false
		}
		for _, rho := range []float64{2, 0.5, 0.1} {
			res, err := SigmaMaxDP(ivs, rho)
			if err != nil {
				return false
			}
			if res.Sigma2 < exact-res.Theta-1e-9 || res.Sigma2 > exact+res.Theta+1e-9 {
				t.Logf("seed %d rho %v: dp %v exact %v theta %v", seed, rho, res.Sigma2, exact, res.Theta)
				return false
			}
			if res.UpperBound < exact-1e-9 {
				t.Logf("upper bound %v below exact %v", res.UpperBound, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSigmaMaxDPShrinkingRhoTightens(t *testing.T) {
	rng := stats.NewRNG(11)
	ivs := make([]Interval, 50)
	for i := range ivs {
		lo := rng.Float64() * 100
		ivs[i] = Interval{Lo: lo, Hi: lo + rng.Float64()*30}
	}
	prevTheta := math.Inf(1)
	for _, rho := range []float64{10, 1, 0.1} {
		res, err := SigmaMaxDP(ivs, rho)
		if err != nil {
			t.Fatal(err)
		}
		if res.Theta >= prevTheta {
			t.Errorf("theta should shrink with rho: %v at rho=%v (prev %v)", res.Theta, rho, prevTheta)
		}
		prevTheta = res.Theta
	}
}

func TestSigmaMaxThresholdMatchesExactOnNonNested(t *testing.T) {
	// Equal-width intervals never nest, where the threshold search is
	// exact.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(10)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rng.Float64() * 40
			ivs[i] = Interval{Lo: lo, Hi: lo + 5}
		}
		exact, err := SigmaMaxExact(ivs)
		if err != nil {
			return false
		}
		thr := SigmaMaxThreshold(ivs)
		return math.Abs(thr-exact) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSigmaMaxThresholdIsLowerBound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(10)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rng.Float64() * 40
			ivs[i] = Interval{Lo: lo, Hi: lo + rng.Float64()*25}
		}
		exact, err := SigmaMaxExact(ivs)
		if err != nil {
			return false
		}
		return SigmaMaxThreshold(ivs) <= exact+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSkewMaxUpperBoundsVertices(t *testing.T) {
	// Brute-force the vertex skew maximum on small inputs; SkewMax's
	// padded bound must not fall below it.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 3 + rng.Intn(8)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rng.Float64() * 30
			ivs[i] = Interval{Lo: lo, Hi: lo + rng.Float64()*20}
		}
		bestVertex := math.Inf(-1)
		values := make([]float64, n)
		for mask := 0; mask < 1<<n; mask++ {
			for i, iv := range ivs {
				if mask&(1<<i) != 0 {
					values[i] = iv.Hi
				} else {
					values[i] = iv.Lo
				}
			}
			if g := stats.FisherSkew(values); g > bestVertex {
				bestVertex = g
			}
		}
		res, err := SkewMax(ivs, 0.05)
		if err != nil {
			return false
		}
		// The grid search is a heuristic; require it to come within 15%
		// of the vertex optimum and the padded bound to cover it.
		return res.UpperBound >= bestVertex-0.15*math.Abs(bestVertex)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSkewMaxOutlierDominates(t *testing.T) {
	// One interval reaching far above the rest: the achievable skew is
	// large and the Cochran requirement grows accordingly.
	ivs := make([]Interval, 100)
	for i := range ivs {
		ivs[i] = Interval{Lo: 1, Hi: 2}
	}
	ivs[0] = Interval{Lo: 1, Hi: 500}
	res, err := SkewMax(ivs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.G1 < 5 {
		t.Errorf("outlier skew = %v, want > 5", res.G1)
	}
	nMin, err := CLTMinSamples(ivs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if nMin <= stats.ModifiedCochranMinSamples(0) {
		t.Errorf("CLT minimum %d should exceed the no-skew floor", nMin)
	}
}

func TestSkewMaxErrors(t *testing.T) {
	if _, err := SkewMax(nil, 1); err == nil {
		t.Error("empty input should error")
	}
	if _, err := SkewMax([]Interval{{1, 2}}, 0); err == nil {
		t.Error("rho=0 should error")
	}
	if _, err := SkewMax([]Interval{{3, 1}}, 1); err == nil {
		t.Error("invalid interval should error")
	}
}

// TestVarianceBoundRule pins the Section 6 release rule: σ²_max stands
// until n reaches 4·floor, and a zero floor never releases it.
func TestVarianceBoundRule(t *testing.T) {
	for _, c := range []struct {
		floor, n int
		want     bool
	}{
		{29, 0, true}, {29, 115, true}, {29, 116, false}, {29, 1000, false},
		{0, 0, true}, {0, 1_000_000, true},
		// 4·floor overflows int here; the bound must still stand.
		{math.MaxInt/2 + 1, math.MaxInt, true},
		{math.MaxInt32, 4*math.MaxInt32 - 1, true}, {math.MaxInt32, 4 * math.MaxInt32, false},
	} {
		s2, ok := VarianceBoundRule(7.5, c.floor)(c.n)
		if ok != c.want || (ok && s2 != 7.5) || (!ok && s2 != 0) {
			t.Errorf("floor %d, n %d: got (%v, %v), want bound applied = %v", c.floor, c.n, s2, ok, c.want)
		}
	}
}

func TestDiffIntervals(t *testing.T) {
	a := []Interval{{10, 20}, {5, 8}}
	b := []Interval{{12, 15}, {1, 2}}
	d := DiffIntervals(a, b)
	if len(d) != 2 {
		t.Fatal("length")
	}
	// Raw diffs: [-5, 8] and [3, 7]; shift by +5 → [0,13], [8,12].
	if d[0].Lo != 0 || d[0].Hi != 13 || d[1].Lo != 8 || d[1].Hi != 12 {
		t.Errorf("diff intervals = %+v", d)
	}
	for _, iv := range d {
		if !iv.Valid() {
			t.Errorf("diff interval invalid: %+v", iv)
		}
	}
}

func TestDeriverBoundsContainTruth(t *testing.T) {
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, 150, 21)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)

	// A small configuration space.
	cands := physical.EnumerateCandidates(cat, w.Analyses(), physical.CandidateOptions{Covering: true, Views: true})
	space := physical.GenerateSpace(cat, cands, 6, stats.NewRNG(3), physical.SpaceOptions{MinStructures: 2, MaxStructures: 6})
	if len(space) < 2 {
		t.Fatal("space too small")
	}

	d := NewDeriver(opt, space...)
	ivs := d.WorkloadIntervals(w)
	if len(ivs) != w.Size() {
		t.Fatalf("interval count %d", len(ivs))
	}
	// The actual cost of every query in every configuration must fall
	// inside its interval (the Section 6.1 guarantee).
	violations := 0
	for i, q := range w.Queries {
		if !ivs[i].Valid() {
			t.Fatalf("invalid interval %d: %+v", i, ivs[i])
		}
		for _, cfg := range space {
			c := opt.Cost(q.Analysis, cfg)
			if c < ivs[i].Lo-1e-9 || c > ivs[i].Hi+1e-9 {
				violations++
				if violations < 4 {
					t.Logf("query %d (%s): cost %v outside [%v, %v] in %s",
						i, q.Analysis.Kind, c, ivs[i].Lo, ivs[i].Hi, cfg.Name())
				}
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d cost-bound violations", violations)
	}
}

func TestDeriverUpdateBoundsPerTemplate(t *testing.T) {
	cat := catalog.CRM()
	w, err := workload.GenCRM(cat, 400, 31)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	cands := physical.EnumerateCandidates(cat, w.Analyses(), physical.CandidateOptions{})
	space := physical.GenerateSpace(cat, cands, 4, stats.NewRNG(5), physical.SpaceOptions{MinStructures: 2, MaxStructures: 5})
	d := NewDeriver(opt, space...)
	ivs := d.WorkloadIntervals(w)
	violations := 0
	for i, q := range w.Queries {
		if !q.Analysis.Kind.IsUpdate() {
			continue
		}
		for _, cfg := range space {
			c := opt.Cost(q.Analysis, cfg)
			if c < ivs[i].Lo-1e-9 || c > ivs[i].Hi+1e-9 {
				violations++
				if violations < 4 {
					t.Logf("DML %d: cost %v outside [%v, %v]", i, c, ivs[i].Lo, ivs[i].Hi)
				}
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d DML bound violations", violations)
	}
}

func TestDeriverBaseAccessor(t *testing.T) {
	cat := catalog.TPCD(0.01)
	opt := optimizer.New(cat)
	shared := physical.NewIndex("lineitem", []string{"l_orderkey"})
	a := physical.NewConfiguration("a", shared, physical.NewIndex("orders", []string{"o_orderkey"}))
	b := physical.NewConfiguration("b", shared)
	d := NewDeriver(opt, a, b)
	base := d.Base()
	if base.NumStructures() != 1 || !base.Has(shared.ID()) {
		t.Errorf("base should be the intersection: %v", base.Structures())
	}
}
