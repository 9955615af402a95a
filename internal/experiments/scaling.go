package experiments

import (
	"physdes/internal/sampling"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// ScalingRow is one point of the workload-size scaling sweep: how many
// optimizer calls the adaptive primitive needs as N grows, absolutely and
// as a fraction of the exhaustive N·k bill.
type ScalingRow struct {
	N              int
	AvgCalls       float64
	ExhaustiveCall int64
	Fraction       float64
	TruePrCS       float64
}

// Scaling runs the paper's headline scalability claim as an explicit
// sweep: for growing prefixes of the TPC-D workload, compare the same two
// configurations adaptively (α=0.9) and record the call bill. The required
// sample size depends on the comparison's difficulty, not on N (up to the
// finite-population correction), so the fraction of exhaustive calls
// collapses as the workload grows — "less than 1% of the number of
// optimizer calls required to compute the configuration costs exactly"
// at the paper's 13K scale.
func Scaling(s *Scenario, sizes []int, p Params) ([]ScalingRow, error) {
	p = p.withDefaults()
	pair := EasyPair(s, p.Seed)

	var rows []ScalingRow
	for _, n := range sizes {
		if n > s.W.Size() {
			n = s.W.Size()
		}
		sub := s.W.Subset(prefixIDs(n))
		// Restrict the exact matrix to the prefix.
		m := &workload.CostMatrix{
			Costs:   pair.Matrix.Costs[:n],
			Configs: pair.Matrix.Configs,
		}
		best, bestCost := m.BestConfig()
		_ = bestCost

		repeats := p.Repeats / 4
		if repeats < 20 {
			repeats = 20
		}
		var calls float64
		correct := 0
		for r := 0; r < repeats; r++ {
			oracle := sampling.NewMatrixOracle(m)
			res, err := sampling.Run(oracle, sampling.Options{
				Scheme: sampling.Delta, Strat: sampling.Progressive,
				Alpha: 0.9, StabilityWindow: 10,
				EliminationThreshold: 0.995,
				RNG:                  stats.NewRNG(p.Seed + uint64(r)*131 + uint64(n)),
				Templates:            sub.Partition(),
			})
			if err != nil {
				return nil, err
			}
			calls += float64(res.OptimizerCalls)
			if res.Best == best {
				correct++
			}
		}
		exhaustive := int64(n) * int64(m.K())
		avg := calls / float64(repeats)
		rows = append(rows, ScalingRow{
			N:              n,
			AvgCalls:       avg,
			ExhaustiveCall: exhaustive,
			Fraction:       avg / float64(exhaustive),
			TruePrCS:       float64(correct) / float64(repeats),
		})
	}
	return rows, nil
}

func prefixIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
