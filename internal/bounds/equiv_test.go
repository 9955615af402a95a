package bounds

import (
	"math"
	"reflect"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// gridSkewMax is the pivot-mean grid search SkewMax used to run, kept as
// the reference its single all-Hi evaluation must reproduce: for up to
// 200,000 pivot means μ on a ρ-grid over [Σlo/n, Σhi/n], pick per interval
// the endpoint maximizing (v−μ)³, evaluate the Fisher skew of that
// assignment, then refine the best one with the same hill-climbs and pad.
func gridSkewMax(ivs []Interval, rho float64) SkewMaxResult {
	n := len(ivs)
	var loMean, hiMean float64
	for _, iv := range ivs {
		loMean += iv.Lo
		hiMean += iv.Hi
	}
	loMean /= float64(n)
	hiMean /= float64(n)
	steps := gridSteps(ivs, rho)
	gridRho := (hiMean - loMean) / float64(steps)
	if gridRho <= 0 {
		gridRho = rho
	}
	best := math.Inf(-1)
	values := make([]float64, n)
	bestValues := make([]float64, n)
	for s := 0; s <= steps; s++ {
		mu := loMean + float64(s)*gridRho
		for i, iv := range ivs {
			dLo, dHi := iv.Lo-mu, iv.Hi-mu
			if dHi*dHi*dHi >= dLo*dLo*dLo {
				values[i] = iv.Hi
			} else {
				values[i] = iv.Lo
			}
		}
		if g := stats.FisherSkew(values); g > best {
			best = g
			copy(bestValues, values)
		}
	}
	if math.IsInf(best, -1) {
		best = 0
	} else {
		if g, _ := localSkewSearch(ivs, bestValues); g > best {
			best = g
		}
		rng := stats.NewRNG(0x5eed)
		starts := 32
		if n > 10_000 {
			starts = 8
		}
		for s := 0; s < starts; s++ {
			for i, iv := range ivs {
				if rng.Float64() < 0.5 {
					values[i] = iv.Lo
				} else {
					values[i] = iv.Hi
				}
			}
			if g, _ := localSkewSearch(ivs, values); g > best {
				best = g
			}
		}
	}
	return SkewMaxResult{G1: best, UpperBound: best + math.Abs(best)*0.1}
}

// gridSteps is the reference grid's pivot count minus one, capped at
// 200,000.
func gridSteps(ivs []Interval, rho float64) int {
	var loSum, hiSum float64
	for _, iv := range ivs {
		loSum += iv.Lo
		hiSum += iv.Hi
	}
	n := float64(len(ivs))
	steps := int(math.Ceil((hiSum/n - loSum/n) / rho))
	return min(max(steps, 1), 200_000)
}

// TestSkewMaxMatchesGridReference pins SkewMax's G1 and UpperBound
// bit-for-bit to the grid search over randomized interval sets: point
// intervals mixed with wide ones, n from 1 to a few hundred, every ρ the
// callers use, and spreads wide enough to hit the grid's step cap.
func TestSkewMaxMatchesGridReference(t *testing.T) {
	rhos := []float64{0.05, 0.5, 1, 50}
	rng := stats.NewRNG(20060403)
	capped := 0
	const trials = 320
	for trial := 0; trial < trials; trial++ {
		rho := rhos[trial%len(rhos)]
		n := 1 + rng.Intn(300)
		scale := math.Pow(10, rng.Float64()*3) // interval spreads 1 … 10³
		if trial%16 == 15 {
			// Mean spreads of ~10⁸ put every ρ past the 200K-step cap;
			// keep n small so the reference grid stays cheap.
			n = 1 + rng.Intn(8)
			scale = 1e8
		}
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rng.Float64() * scale
			switch rng.Intn(4) {
			case 0: // zero-width
				ivs[i] = Interval{Lo: lo, Hi: lo}
			case 1: // outlier reaching far above the rest
				ivs[i] = Interval{Lo: lo, Hi: lo + 10*scale*rng.Float64()}
			default:
				ivs[i] = Interval{Lo: lo, Hi: lo + scale*rng.Float64()}
			}
		}
		if gridSteps(ivs, rho) == 200_000 {
			capped++
		}
		got, err := SkewMax(ivs, rho)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := gridSkewMax(ivs, rho)
		if math.Float64bits(got.G1) != math.Float64bits(want.G1) ||
			math.Float64bits(got.UpperBound) != math.Float64bits(want.UpperBound) {
			t.Errorf("trial %d (n=%d, rho=%g): G1/UpperBound = %v/%v, grid reference %v/%v",
				trial, n, rho, got.G1, got.UpperBound, want.G1, want.UpperBound)
		}
		if got.Assignments < 1 {
			t.Errorf("trial %d: Assignments = %d, want at least the all-Hi vertex", trial, got.Assignments)
		}
	}
	if capped < trials/32 {
		t.Errorf("only %d of %d interval sets hit the 200K-step grid cap", capped, trials)
	}
}

// TestWorkloadIntervalsMatchesPerStatement pins the per-template
// best-for-query memo: WorkloadIntervals must equal deriving every SELECT
// through QueryInterval (and the DML templates on their own), with the
// same optimizer-call total, at every parallelism level.
func TestWorkloadIntervalsMatchesPerStatement(t *testing.T) {
	tpcd := catalog.TPCD(0.01)
	crm := catalog.CRM()
	cases := []struct {
		name string
		cat  *catalog.Catalog
		gen  func(*catalog.Catalog, int, uint64) (*workload.Workload, error)
		seed uint64
	}{
		{"tpcd", tpcd, workload.GenTPCD, 41},
		{"tpcd", tpcd, workload.GenTPCD, 42},
		{"crm", crm, workload.GenCRM, 43},
		{"crm", crm, workload.GenCRM, 44},
	}
	for _, c := range cases {
		w, err := c.gen(c.cat, 400, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		cands := physical.EnumerateCandidates(c.cat, w.Analyses(), physical.CandidateOptions{Covering: true, Views: true})
		space := physical.GenerateSpace(c.cat, cands, 6, stats.NewRNG(c.seed), physical.SpaceOptions{MinStructures: 2, MaxStructures: 6})
		if w.NumTemplates() >= w.Size() {
			t.Fatalf("%s seed %d: no template repeats, the memo is never exercised", c.name, c.seed)
		}

		// Reference: DML templates through WorkloadIntervals on the DML
		// statements alone, every SELECT through QueryInterval.
		refOpt := optimizer.New(c.cat)
		ref := NewDeriver(refOpt, space...)
		want := make([]Interval, w.Size())
		var dmlIDs []int
		for i, q := range w.Queries {
			if q.Analysis.Kind.IsUpdate() {
				dmlIDs = append(dmlIDs, i)
			} else {
				want[i] = ref.QueryInterval(q.Analysis)
			}
		}
		if len(dmlIDs) > 0 {
			for j, iv := range ref.WorkloadIntervals(w.Subset(dmlIDs)) {
				want[dmlIDs[j]] = iv
			}
		}

		for _, p := range []int{1, 4} {
			opt := optimizer.New(c.cat)
			got := NewDeriver(opt, space...).WithParallelism(p).WorkloadIntervals(w)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d parallelism %d: intervals differ from per-statement derivation", c.name, c.seed, p)
			}
			if opt.Calls() != refOpt.Calls() {
				t.Errorf("%s seed %d parallelism %d: %d optimizer calls, per-statement derivation made %d",
					c.name, c.seed, p, opt.Calls(), refOpt.Calls())
			}
		}
	}
}
