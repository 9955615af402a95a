package experiments

import (
	"time"

	"physdes/internal/bounds"
	"physdes/internal/obs"
	"physdes/internal/par"
	"physdes/internal/sampling"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// AblationRow is one row of an ablation sweep.
type AblationRow struct {
	Setting  string
	TruePrCS float64
	AvgCalls float64
	AvgValue float64 // experiment-specific extra (e.g. eliminated count)
}

// EliminationAblation measures the Section 5 optimization of dropping
// clearly inferior configurations: with and without elimination, the
// primitive's accuracy and cost on a k-configuration space.
func EliminationAblation(s *Scenario, k int, p Params) []AblationRow {
	p = p.withDefaults()
	_, m := Space(s, k, p.Seed+uint64(k)*17)
	trueBest, _ := m.BestConfig()
	settings := []struct {
		name string
		th   float64
	}{
		{"elimination off", 0},
		{"elimination budgeted", 0.995},
	}
	var rows []AblationRow
	for si, st := range settings {
		correct, calls, elim := mcAdaptive(s, m, trueBest, p, func(o *sampling.Options) {
			o.EliminationThreshold = st.th
		}, uint64(si)*31)
		rows = append(rows, AblationRow{
			Setting:  st.name,
			TruePrCS: correct,
			AvgCalls: calls,
			AvgValue: elim,
		})
	}
	return rows
}

// StabilityAblation measures the stability-window guard of Section 7.2
// ("we only accept a Pr(CS)-condition if it holds for more than 10
// consecutive samples"): window 1 vs 10, accuracy vs oversampling.
func StabilityAblation(s *Scenario, k int, p Params) []AblationRow {
	p = p.withDefaults()
	_, m := Space(s, k, p.Seed+uint64(k)*19)
	trueBest, _ := m.BestConfig()
	var rows []AblationRow
	for _, window := range []int{1, 10} {
		name := "stability window 1"
		if window == 10 {
			name = "stability window 10"
		}
		correct, calls, _ := mcAdaptive(s, m, trueBest, p, func(o *sampling.Options) {
			o.StabilityWindow = window
		}, uint64(window)*37)
		rows = append(rows, AblationRow{Setting: name, TruePrCS: correct, AvgCalls: calls})
	}
	return rows
}

// mcAdaptive runs the adaptive primitive p.Repeats times with a tweak
// applied, returning (true Pr(CS), avg calls, avg eliminated count).
func mcAdaptive(s *Scenario, m *workload.CostMatrix, trueBest int, p Params, tweak func(*sampling.Options), seedOff uint64) (float64, float64, float64) {
	tmplIdx := s.W.TemplateIndexOf()
	tmplCount := s.W.NumTemplates()
	type out struct {
		correct bool
		calls   int64
		elim    int
	}
	outs := make([]out, p.Repeats)
	par.For(p.Repeats, par.Default(), func(r int) {
		opts := sampling.Options{
			Scheme:               sampling.Delta,
			Strat:                sampling.Progressive,
			Alpha:                0.9,
			StabilityWindow:      10,
			EliminationThreshold: 0.995,
			RNG:                  stats.NewRNG(p.Seed + seedOff + uint64(r)*6_700_417),
			TemplateIndex:        tmplIdx,
			TemplateCount:        tmplCount,
		}
		tweak(&opts)
		res, err := sampling.Run(sampling.NewMatrixOracle(m), opts)
		if err != nil {
			return
		}
		e := 0
		for _, x := range res.Eliminated {
			if x {
				e++
			}
		}
		outs[r] = out{correct: res.Best == trueBest, calls: res.OptimizerCalls, elim: e}
	})
	var correct, calls, elim float64
	for _, o := range outs {
		if o.correct {
			correct++
		}
		calls += float64(o.calls)
		elim += float64(o.elim)
	}
	n := float64(p.Repeats)
	return correct / n, calls / n, elim / n
}

// RhoRow is one point of the ρ accuracy/overhead trade-off sweep.
type RhoRow struct {
	Rho     float64
	Sigma2  float64
	Theta   float64
	Elapsed time.Duration
}

// RhoSweep measures the σ²_max DP's accuracy (θ) against its runtime over a
// wider ρ range than Table 1 — the ablation for the design choice of
// rounding granularity.
func RhoSweep(p Params) ([]RhoRow, error) {
	p = p.withDefaults()
	n := p.SigmaN / 4
	if n < 500 {
		n = 500
	}
	ivs := SigmaIntervals(n, p.Seed+51)
	var rows []RhoRow
	for _, rho := range []float64{20, 10, 5, 2, 1, 0.5, 0.2} {
		sw := obs.NewStopwatch()
		res, err := bounds.SigmaMaxDP(ivs, rho)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RhoRow{Rho: rho, Sigma2: res.Sigma2, Theta: res.Theta, Elapsed: sw.Elapsed()})
	}
	return rows, nil
}
