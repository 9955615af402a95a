package experiments

import (
	"physdes/internal/bounds"
	"physdes/internal/par"
	"physdes/internal/sampling"
	"physdes/internal/stats"
)

// MultiMethod names one row group of Tables 2 and 3.
type MultiMethod int

// Methods of the multi-configuration comparison.
const (
	// MethodPrimitive is the paper's comparison primitive: Delta Sampling
	// with progressive stratification, adaptive termination at α, a
	// 10-sample stability window and 0.995 elimination.
	MethodPrimitive MultiMethod = iota
	// MethodNoStrat allocates the same number of samples without
	// stratification.
	MethodNoStrat
	// MethodEqualAlloc samples the same number of queries from every
	// stratum.
	MethodEqualAlloc
	// MethodConservative is the primitive with Section 6 engaged: the
	// σ²_max bound (from per-query cost intervals) replaces optimistic
	// sample variances and the Equation 9 floor gates termination. It
	// spends more calls and eliminates the heavy-tailed worst-case misses.
	MethodConservative
)

func (m MultiMethod) String() string {
	switch m {
	case MethodPrimitive:
		return "Delta-Sampling"
	case MethodNoStrat:
		return "No Strat."
	case MethodEqualAlloc:
		return "Equal Alloc."
	case MethodConservative:
		return "Delta+Conservative"
	}
	return "?"
}

// runOut is one Monte-Carlo run's outcome.
type runOut struct {
	correct bool
	delta   float64
	calls   int64
}

// MultiRow is one cell group of Table 2/3: a method at one k.
type MultiRow struct {
	Method MultiMethod
	K      int
	// TruePrCS is the Monte-Carlo fraction of correct selections.
	TruePrCS float64
	// MaxDelta is the worst relative cost excess of a selected
	// configuration over the best one, across runs.
	MaxDelta float64
	// AvgCalls is the mean optimizer-call count per run.
	AvgCalls float64
}

// MultiConfig runs the Table 2/3 protocol for one k: the primitive runs
// adaptively (α=0.9, δ=0); the two baselines replay with the identical
// number of samples ("using identical number of samples", Section 7.2).
func MultiConfig(s *Scenario, k int, p Params) []MultiRow {
	p = p.withDefaults()
	_, m := Space(s, k, p.Seed+uint64(k)*13)
	_, trueCost := m.BestConfig()
	tmpls := s.W.Partition()

	// Section 6 machinery for the conservative row: per-query cost
	// intervals across the space (what a Deriver would bound), the σ²_max
	// of the difference population, and the Equation 9 sample floor.
	ivs := make([]bounds.Interval, m.N())
	for i := 0; i < m.N(); i++ {
		lo, hi := m.Costs[i][0], m.Costs[i][0]
		for _, c := range m.Costs[i][1:] {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		ivs[i] = bounds.Interval{Lo: lo, Hi: hi}
	}
	diffIvs := bounds.DiffIntervals(ivs, ivs)
	rho := maxWidth(diffIvs) / 200
	if rho <= 0 {
		rho = 1
	}
	var consBound float64
	if vres, err := bounds.SigmaMaxDP(diffIvs, rho); err == nil {
		consBound = vres.UpperBound
	} else {
		consBound = bounds.SigmaMaxThreshold(diffIvs)
	}
	consFloor := 0
	if cm, err := bounds.CLTMinSamples(ivs, rho); err == nil {
		consFloor = cm
	}

	runMethod := func(method MultiMethod, budgetPerRun []int64) []runOut {
		outs := make([]runOut, p.Repeats)
		par.For(p.Repeats, par.Default(), func(r int) {
			opts := sampling.Options{
				Scheme:    sampling.Delta,
				Alpha:     0.9,
				NMin:      stats.NMin,
				RNG:       stats.NewRNG(p.Seed + uint64(r)*7_919 + uint64(method)*104_729 + uint64(k)),
				Templates: tmpls,
			}
			switch method {
			case MethodPrimitive:
				opts.Strat = sampling.Progressive
				opts.StabilityWindow = 10
				opts.EliminationThreshold = 0.995
			case MethodNoStrat:
				opts.Strat = sampling.NoStrat
				opts.MaxCalls = budgetPerRun[r]
			case MethodEqualAlloc:
				opts.Strat = sampling.EqualAlloc
				opts.MaxCalls = budgetPerRun[r]
			case MethodConservative:
				opts.Strat = sampling.Progressive
				opts.StabilityWindow = 10
				opts.EliminationThreshold = 0.995
				opts.MinSamples = consFloor
				opts.VarianceBound = bounds.VarianceBoundRule(consBound, consFloor)
			}
			res, err := sampling.Run(sampling.NewMatrixOracle(m), opts)
			if err != nil {
				return
			}
			delta := (m.TotalCost(res.Best) - trueCost) / trueCost
			outs[r] = runOut{
				// Exact ties for the optimum are correct selections:
				// perturbation spaces contain configurations whose
				// extra structures touch no query.
				correct: delta <= 1e-12,
				delta:   delta,
				calls:   res.OptimizerCalls,
			}
		})
		return outs
	}

	// Primitive first; its per-run call counts budget the baselines.
	prim := runMethod(MethodPrimitive, nil)
	budgets := make([]int64, p.Repeats)
	for r := range budgets {
		budgets[r] = prim[r].calls
	}
	rows := []MultiRow{summarize(MethodPrimitive, k, prim)}
	for _, method := range []MultiMethod{MethodNoStrat, MethodEqualAlloc} {
		rows = append(rows, summarize(method, k, runMethod(method, budgets)))
	}
	rows = append(rows, summarize(MethodConservative, k, runMethod(MethodConservative, nil)))
	return rows
}

func maxWidth(ivs []bounds.Interval) float64 {
	var w float64
	for _, iv := range ivs {
		if d := iv.Width(); d > w {
			w = d
		}
	}
	return w
}

func summarize(method MultiMethod, k int, outs []runOut) MultiRow {
	row := MultiRow{Method: method, K: k}
	var calls float64
	for _, o := range outs {
		if o.correct {
			row.TruePrCS++
		}
		if o.delta > row.MaxDelta {
			row.MaxDelta = o.delta
		}
		calls += float64(o.calls)
	}
	row.TruePrCS /= float64(len(outs))
	row.AvgCalls = calls / float64(len(outs))
	return row
}

// MultiConfigAll sweeps every k of the params.
func MultiConfigAll(s *Scenario, p Params) []MultiRow {
	p = p.withDefaults()
	var rows []MultiRow
	for _, k := range p.Ks {
		rows = append(rows, MultiConfig(s, k, p)...)
	}
	return rows
}
