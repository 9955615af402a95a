package tuner

import (
	"fmt"

	"physdes/internal/core"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// SampledOptions configures the sampling-based greedy tuner.
type SampledOptions struct {
	// MaxStructures caps the number of chosen structures (default 10).
	MaxStructures int
	// Alpha is the per-comparison probability target (default 0.9).
	Alpha float64
	// DeltaFrac is the sensitivity δ of each comparison as a fraction of
	// the estimated current workload cost: a candidate must beat the
	// incumbent by more than this to be worth a design change
	// (default 0.01).
	DeltaFrac float64
	// Seed drives the sampling.
	Seed uint64
}

func (o SampledOptions) withDefaults() SampledOptions {
	if o.MaxStructures <= 0 {
		o.MaxStructures = 10
	}
	if o.Alpha == 0 {
		o.Alpha = 0.9
	}
	if o.DeltaFrac == 0 {
		o.DeltaFrac = 0.01
	}
	return o
}

// SampledResult reports a sampling-based tuning run.
type SampledResult struct {
	// Config is the recommended configuration.
	Config *physical.Configuration
	// Steps records each greedy round's decision.
	Steps []SampledStep
	// OptimizerCalls is the total what-if spend.
	OptimizerCalls int64
}

// SampledStep is one greedy round.
type SampledStep struct {
	// Chosen is the structure added this round ("" when the round
	// terminated the search).
	Chosen string
	// PrCS is the comparison primitive's confidence in the round's
	// decision.
	PrCS float64
	// Calls is the round's optimizer-call spend.
	Calls int64
}

// GreedySampled tunes the workload like Greedy, but every round's
// "which candidate helps most / does any help at all" decision is made by
// the paper's comparison primitive over {incumbent} ∪ {incumbent+candidate}
// configurations instead of exhaustive evaluation — the paper's use case
// (b): "the core comparison primitive inside an automated physical design
// tool, providing both scalability and locally good decisions with
// probabilistic guarantees on the accuracy of each comparison".
//
// Each round compares the incumbent against incumbent+candidate for every
// remaining candidate in a single k-way selection, with δ set to DeltaFrac
// of the incumbent's estimated cost: the round stops the search when the
// incumbent itself wins (no candidate is δ-better).
func GreedySampled(opt *optimizer.Optimizer, w *workload.Workload, candidates []physical.Structure, o SampledOptions) (*SampledResult, error) {
	o = o.withDefaults()
	res := &SampledResult{}
	current := physical.NewConfiguration("tuned-sampled")
	remaining := append([]physical.Structure(nil), candidates...)

	for round := 0; round < o.MaxStructures && len(remaining) > 0; round++ {
		// Candidate configurations: the incumbent plus one-step extensions.
		configs := make([]*physical.Configuration, 0, len(remaining)+1)
		configs = append(configs, current)
		for _, cand := range remaining {
			configs = append(configs, current.With(cand.ID(), cand))
		}

		// δ is DeltaFrac of the incumbent's total cost, estimated from a
		// small pilot sample (charged to the round's call count): "the
		// overhead of changing the physical database design is justified
		// only when the new configuration is significantly better"
		// (Section 3).
		pilotN := 30
		if pilotN > w.Size() {
			pilotN = w.Size()
		}
		delta := o.DeltaFrac * estimateTotal(opt, w, current, pilotN, o.Seed+uint64(round))
		res.OptimizerCalls += int64(pilotN)
		sel, err := core.Select(opt, w, configs, core.Options{
			Alpha:                o.Alpha,
			Delta:                delta,
			Scheme:               sampling.Delta,
			Strat:                sampling.Progressive,
			StabilityWindow:      5,
			EliminationThreshold: 0.995,
			Seed:                 o.Seed + uint64(round)*101,
		})
		if err != nil {
			return nil, fmt.Errorf("tuner: sampled round %d: %w", round, err)
		}
		res.OptimizerCalls += sel.OptimizerCalls

		if sel.BestIndex == 0 {
			// The incumbent won: no candidate is better; stop.
			res.Steps = append(res.Steps, SampledStep{PrCS: sel.PrCS, Calls: sel.OptimizerCalls})
			break
		}
		chosen := remaining[sel.BestIndex-1]
		res.Steps = append(res.Steps, SampledStep{
			Chosen: chosen.ID(),
			PrCS:   sel.PrCS,
			Calls:  sel.OptimizerCalls,
		})
		current = current.With("tuned-sampled", chosen)
		remaining = append(remaining[:sel.BestIndex-1], remaining[sel.BestIndex:]...)
	}

	res.Config = current
	return res, nil
}

// estimateTotal roughly estimates Cost(WL, cfg) from a uniform pilot of n
// queries (n optimizer calls); used only to scale δ.
func estimateTotal(opt *optimizer.Optimizer, w *workload.Workload, cfg *physical.Configuration, n int, seed uint64) float64 {
	if n > w.Size() {
		n = w.Size()
	}
	if n == 0 {
		return 0
	}
	perm := stats.NewRNG(seed).Perm(w.Size())
	var sum float64
	for _, qi := range perm[:n] {
		sum += opt.Cost(w.Queries[qi].Analysis, cfg)
	}
	return sum / float64(n) * float64(w.Size())
}
