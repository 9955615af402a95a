// Package tuner implements a small greedy physical-design tuner: from a
// candidate structure set, repeatedly add the structure with the largest
// weighted workload cost reduction until no structure helps or the storage
// budget is exhausted. It is the consumer the Section 7.3 quality
// comparison needs: tuning a full workload, a compressed workload, or a
// sample, and measuring the improvement of the recommended configuration
// over the entire workload.
package tuner

import (
	"math"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/par"
	"physdes/internal/physical"
	"physdes/internal/workload"
)

// Options bounds the greedy search.
type Options struct {
	// BudgetBytes caps the configuration footprint (0: unlimited).
	BudgetBytes int64
	// MaxStructures caps the number of chosen structures (default 10).
	MaxStructures int
	// MinGain is the minimum relative cost reduction a structure must
	// deliver to be added (default 0.001).
	MinGain float64
}

func (o Options) withDefaults() Options {
	if o.MaxStructures <= 0 {
		o.MaxStructures = 10
	}
	if o.MinGain <= 0 {
		o.MinGain = 0.001
	}
	return o
}

// Result reports a tuning run.
type Result struct {
	// Config is the recommended configuration.
	Config *physical.Configuration
	// Chosen lists the structures in greedy selection order (most
	// beneficial first).
	Chosen []physical.Structure
	// TunedCost is the weighted cost of the tuning workload under Config.
	TunedCost float64
	// BaseCost is the weighted cost under the empty configuration.
	BaseCost float64
	// OptimizerCalls spent by the tuner.
	OptimizerCalls int64
}

// Improvement returns the relative cost reduction achieved on the tuning
// workload.
func (r *Result) Improvement() float64 {
	if r.BaseCost == 0 {
		return 0
	}
	return 1 - r.TunedCost/r.BaseCost
}

// Greedy tunes the (optionally weighted) workload. weights may be nil for
// uniform weight 1; otherwise weights[i] scales query i's cost.
func Greedy(opt *optimizer.Optimizer, cat *catalog.Catalog, w *workload.Workload, weights []float64, candidates []physical.Structure, o Options) *Result {
	o = o.withDefaults()
	start := opt.Calls()

	weightOf := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	evalCost := func(cfg *physical.Configuration) float64 {
		var total float64
		for i, q := range w.Queries {
			total += weightOf(i) * opt.Cost(q.Analysis, cfg)
		}
		return total
	}

	current := physical.NewConfiguration("tuned")
	baseCost := evalCost(current)
	currentCost := baseCost
	var usedBytes int64
	var chosenOrder []physical.Structure
	remaining := append([]physical.Structure(nil), candidates...)

	for iter := 0; iter < o.MaxStructures && len(remaining) > 0; iter++ {
		// Score every affordable candidate in parallel over all cores (each
		// probe is a pure what-if evaluation of the workload under a fresh
		// configuration), then pick the winner serially in candidate order
		// — the same argmin the serial loop computes, so the
		// recommendation does not depend on the worker count.
		probeCosts := make([]float64, len(remaining))
		par.For(len(remaining), par.Default(), func(ci int) {
			cand := remaining[ci]
			if o.BudgetBytes > 0 && usedBytes+cand.SizeBytes(cat) > o.BudgetBytes {
				probeCosts[ci] = math.NaN()
				return
			}
			probeCosts[ci] = evalCost(current.With("probe", cand))
		})
		bestIdx := -1
		bestCost := currentCost
		for ci, c := range probeCosts {
			if !math.IsNaN(c) && c < bestCost {
				bestCost = c
				bestIdx = ci
			}
		}
		if bestIdx < 0 {
			break
		}
		gain := (currentCost - bestCost) / baseCost
		if gain < o.MinGain {
			break
		}
		chosen := remaining[bestIdx]
		usedBytes += chosen.SizeBytes(cat)
		current = current.With("tuned", chosen)
		chosenOrder = append(chosenOrder, chosen)
		currentCost = bestCost
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}

	return &Result{
		Config:         current,
		Chosen:         chosenOrder,
		TunedCost:      currentCost,
		BaseCost:       baseCost,
		OptimizerCalls: opt.Calls() - start,
	}
}

// EvaluateOn returns the relative improvement configuration cfg delivers on
// workload w over the empty configuration — the cross-evaluation step of
// Section 7.3 (a configuration tuned on a compressed workload is scored on
// the full one).
func EvaluateOn(opt *optimizer.Optimizer, w *workload.Workload, cfg *physical.Configuration) float64 {
	empty := physical.NewConfiguration("empty")
	var base, tuned float64
	for _, q := range w.Queries {
		base += opt.Cost(q.Analysis, empty)
		tuned += opt.Cost(q.Analysis, cfg)
	}
	if base == 0 {
		return 0
	}
	return 1 - tuned/base
}
