package core

import (
	"math"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// TestPrCSStatisticalGuarantee is the statistical regression harness for
// the paper's core guarantee: Select must return the true lowest-cost
// configuration with probability >= α. It runs a seeded Monte-Carlo of
// independent selections against the exhaustively computed ground truth
// and requires the observed correct-selection rate to stay within three
// binomial standard errors of α — loose enough to never flake on a correct
// implementation (a >=α process dips below the bound with probability
// ~1e-3), tight enough that a math regression pushing the real rate a few
// points under α fails deterministically (the trials are seeded).
func TestPrCSStatisticalGuarantee(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo harness skipped in -short mode")
	}
	const (
		trials = 200
		alpha  = 0.9
	)
	opt, w, space := scenario(t, 500, 4, 21)
	truth := exactBest(opt, w, space)
	// Near-ties make "correct selection" ill-defined at δ=0 in a finite
	// trial count; the guarantee is about detecting real differences, so
	// the scenario must have a clear winner. Guard the fixture.
	m := workload.ComputeCostMatrix(opt, w, space)
	bestCost := m.TotalCost(truth)
	for j := range space {
		if j == truth {
			continue
		}
		if gap := (m.TotalCost(j) - bestCost) / bestCost; gap < 0.01 {
			t.Fatalf("fixture has a near-tie: config %d within %.2f%% of best", j, 100*gap)
		}
	}

	correct := 0
	for i := 0; i < trials; i++ {
		o := DefaultOptions(uint64(1000 + i))
		o.Alpha = alpha
		sel, err := Select(opt, w, space, o)
		if err != nil {
			t.Fatal(err)
		}
		if sel.BestIndex == truth {
			correct++
		}
		if sel.PrCS < alpha {
			t.Errorf("trial %d terminated with Pr(CS)=%v < α=%v", i, sel.PrCS, alpha)
		}
	}
	rate := float64(correct) / trials
	stderr := math.Sqrt(alpha * (1 - alpha) / trials)
	floor := alpha - 3*stderr
	t.Logf("correct-selection rate %.3f over %d trials (floor %.4f)", rate, trials, floor)
	if rate < floor {
		t.Errorf("correct-selection rate %.3f < %.4f = α − 3·stderr: the Pr(CS) guarantee regressed",
			rate, floor)
	}
}

// TestPrCSStatisticalGuaranteeConservative pins the same lower bound for
// Section 6's conservative mode: with the σ²_max variance bound and the
// modified Cochran sample-size floor in force, the observed correct-
// selection rate must also stay above α − 3·stderr. Conservative mode can
// only raise the real selection probability (it inflates the variance
// estimate and delays termination), so the floor is identical; the test
// exists because this path has its own machinery — interval derivation,
// the DP bound, the Equation 9 gate — any of which could silently break
// the guarantee.
func TestPrCSStatisticalGuaranteeConservative(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo harness skipped in -short mode")
	}
	const (
		trials = 200
		alpha  = 0.9
	)
	opt, w, space := scenario(t, 300, 3, 23)
	truth := exactBest(opt, w, space)
	m := workload.ComputeCostMatrix(opt, w, space)
	bestCost := m.TotalCost(truth)
	for j := range space {
		if j == truth {
			continue
		}
		if gap := (m.TotalCost(j) - bestCost) / bestCost; gap < 0.01 {
			t.Fatalf("fixture has a near-tie: config %d within %.2f%% of best", j, 100*gap)
		}
	}

	correct := 0
	var sampledTotal int64
	for i := 0; i < trials; i++ {
		o := DefaultOptions(uint64(5000 + i))
		o.Alpha = alpha
		o.Conservative = true
		sel, err := Select(opt, w, space, o)
		if err != nil {
			t.Fatal(err)
		}
		if sel.BestIndex == truth {
			correct++
		}
		if sel.PrCS < alpha {
			t.Errorf("trial %d terminated with Pr(CS)=%v < α=%v", i, sel.PrCS, alpha)
		}
		if sel.CLTMinSamples > 0 && sel.SampledQueries < sel.CLTMinSamples && sel.SampledQueries < w.Size() {
			t.Errorf("trial %d terminated at %d samples, below the Equation 9 floor %d",
				i, sel.SampledQueries, sel.CLTMinSamples)
		}
		if sel.VarianceBound <= 0 {
			t.Errorf("trial %d reported no σ²_max bound in conservative mode", i)
		}
		sampledTotal += int64(sel.SampledQueries)
	}
	rate := float64(correct) / trials
	stderr := math.Sqrt(alpha * (1 - alpha) / trials)
	floor := alpha - 3*stderr
	t.Logf("conservative correct-selection rate %.3f over %d trials (floor %.4f, mean sampled %.0f)",
		rate, trials, floor, float64(sampledTotal)/trials)
	if rate < floor {
		t.Errorf("conservative correct-selection rate %.3f < %.4f = α − 3·stderr: the Section 6 guarantee regressed",
			rate, floor)
	}
}

// TestPrCSOnBenchmarkSpaces checks the Pr(CS) ≥ α guarantee on the
// configuration spaces perfbench selects over, with the default options at
// one worker: TPC-D 13K (k=50) and CRM 6K (k=200), each generated from
// seed 1000 with the configuration space drawn as perfbench draws it.
// At k=50 and k=200 elimination's threshold is tightened beyond its 0.995
// floor, so this pins that runs stopping long before a census still
// select correctly. A pick is wrong when its exact workload cost exceeds
// the exact best by more than 0.1% (perfbench's regret tolerance); the
// rate of right picks over 200 selection seeds must stay within three
// binomial standard errors of α. The selections run one after another on
// one worker, so the race detector has nothing to watch and would only
// stretch the test tenfold: it is skipped there and run plainly instead.
func TestPrCSOnBenchmarkSpaces(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo harness skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("sequential single-worker Monte-Carlo skipped under the race detector")
	}
	const (
		trials    = 200
		tolerance = 0.001
	)
	spaces := []struct {
		db        string
		n, k      int
		spaceSeed uint64
	}{
		{db: "tpcd", n: 13_000, k: 50, spaceSeed: 12},
		{db: "crm", n: 6_000, k: 200, spaceSeed: 4},
	}
	for _, sp := range spaces {
		t.Run(sp.db, func(t *testing.T) {
			cat := catalog.TPCD(1)
			gen := workload.GenTPCD
			if sp.db == "crm" {
				cat, gen = catalog.CRM(), workload.GenCRM
			}
			w, err := gen(cat, sp.n, 1000)
			if err != nil {
				t.Fatal(err)
			}
			analyses := w.Analyses()
			cands := physical.EnumerateCandidates(cat, analyses,
				physical.CandidateOptions{Covering: true, Views: sp.db == "tpcd"})
			space := physical.GenerateSpace(cat, cands, sp.k, stats.NewRNG(sp.spaceSeed),
				physical.SpaceOptions{MinStructures: 3, MaxStructures: 10})
			if len(space) != sp.k {
				t.Fatalf("space has %d configurations, want %d", len(space), sp.k)
			}
			opt := optimizer.New(cat)
			truth := workload.ComputeCostMatrix(opt, w, space)
			_, bestCost := truth.BestConfig()

			correct := 0
			var calls int64
			for i := 0; i < trials; i++ {
				o := DefaultOptions(uint64(i + 1))
				o.Parallelism = 1
				sel, err := Select(opt, w, space, o)
				if err != nil {
					t.Fatal(err)
				}
				if truth.TotalCost(sel.BestIndex)/bestCost-1 <= tolerance {
					correct++
				}
				calls += sel.OptimizerCalls
			}
			alpha := DefaultOptions(0).Alpha
			rate := float64(correct) / trials
			floor := alpha - 3*math.Sqrt(alpha*(1-alpha)/trials)
			t.Logf("%s: correct-selection rate %.3f over %d trials (floor %.4f), mean calls %.0f",
				sp.db, rate, trials, floor, float64(calls)/trials)
			if rate < floor {
				t.Errorf("correct-selection rate %.3f < %.4f = α − 3·stderr", rate, floor)
			}
		})
	}
}
