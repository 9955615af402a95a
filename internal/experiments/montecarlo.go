package experiments

import (
	"physdes/internal/par"
	"physdes/internal/sampling"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// SchemeVariant names one sampling-scheme configuration of the Monte-Carlo
// figures.
type SchemeVariant struct {
	Name   string
	Scheme sampling.Scheme
	Strat  sampling.StratMode
}

// FigureVariants are the four lines of Figures 1, 3 and 4.
func FigureVariants() []SchemeVariant {
	return []SchemeVariant{
		{"Independent", sampling.Independent, sampling.NoStrat},
		{"Independent+Strat", sampling.Independent, sampling.Progressive},
		{"Delta", sampling.Delta, sampling.NoStrat},
		{"Delta+Strat", sampling.Delta, sampling.Progressive},
	}
}

// Fig2Variants compares progressive against fine stratification (Figure 2).
func Fig2Variants() []SchemeVariant {
	return []SchemeVariant{
		{"Delta+Progressive", sampling.Delta, sampling.Progressive},
		{"Delta+Fine", sampling.Delta, sampling.Fine},
		{"Independent+Progressive", sampling.Independent, sampling.Progressive},
		{"Independent+Fine", sampling.Independent, sampling.Fine},
	}
}

// MCPoint is one Monte-Carlo measurement: at a call budget, the fraction of
// runs that selected the exactly best configuration.
type MCPoint struct {
	Budget   int64
	TruePrCS float64
}

// MCSeries is one scheme's Pr(CS) curve.
type MCSeries struct {
	Variant SchemeVariant
	Points  []MCPoint
}

// DefaultBudgets returns the optimizer-call budgets the figures sweep.
// With k=2 a budget of 2n corresponds to n sampled queries under Delta
// Sampling; the exact computation costs 2N calls.
func DefaultBudgets(n int) []int64 {
	frac := []float64{0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.18}
	var out []int64
	for _, f := range frac {
		b := int64(f * float64(2*n))
		if b < 44 {
			b = 44
		}
		if len(out) > 0 && b <= out[len(out)-1] {
			continue // clamping can collapse the smallest budgets
		}
		out = append(out, b)
	}
	return out
}

// MonteCarlo estimates the true probability of correct selection of each
// variant at each call budget by repeated simulated runs against the
// pair's exact cost matrix (the Section 7.1 protocol: "this process is
// repeated 5000 times, resulting in a Monte Carlo simulation to compute the
// 'true' probability of correct selection").
func MonteCarlo(p *Pair, variants []SchemeVariant, budgets []int64, repeats int, tmpls workload.Partition, seed uint64) []MCSeries {
	out := make([]MCSeries, len(variants))
	for vi, v := range variants {
		out[vi] = MCSeries{Variant: v}
		for _, b := range budgets {
			correct := mcRuns(p, v, b, repeats, tmpls, seed+uint64(vi)*1_000_003+uint64(b))
			out[vi].Points = append(out[vi].Points, MCPoint{
				Budget:   b,
				TruePrCS: float64(correct) / float64(repeats),
			})
		}
	}
	return out
}

// mcRuns executes `repeats` independent fixed-budget selections in
// parallel, returning how many picked the exact best configuration. Runs
// alternate the configuration column order so deterministic tie-breaking
// (possible in a noiseless cost model when sampled queries are indifferent
// between two configurations) cannot systematically favor the winner.
func mcRuns(p *Pair, v SchemeVariant, budget int64, repeats int, tmpls workload.Partition, seed uint64) int {
	k := p.Matrix.K()
	swapped := p.Matrix
	swappedBest := p.Best
	if k == 2 {
		swapped = p.Matrix.SubsetColumns([]int{1, 0})
		swappedBest = 1 - p.Best
	}
	hits := make([]bool, repeats)
	par.For(repeats, par.Default(), func(r int) {
		m, best := p.Matrix, p.Best
		if r%2 == 1 {
			m, best = swapped, swappedBest
		}
		oracle := sampling.NewMatrixOracle(m)
		res, err := sampling.Run(oracle, sampling.Options{
			Scheme:    v.Scheme,
			Strat:     v.Strat,
			MaxCalls:  budget,
			NMin:      20,
			RNG:       stats.NewRNG(seed + uint64(r)*2_654_435_761),
			Templates: tmpls,
		})
		hits[r] = err == nil && res.Best == best
	})
	total := 0
	for _, hit := range hits {
		if hit {
			total++
		}
	}
	return total
}

// Figure runs one of the pair figures end-to-end.
func Figure(s *Scenario, pair *Pair, variants []SchemeVariant, p Params) []MCSeries {
	p = p.withDefaults()
	return MonteCarlo(pair, variants, DefaultBudgets(s.W.Size()), p.Repeats,
		s.W.Partition(), p.Seed+7)
}
