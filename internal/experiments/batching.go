package experiments

import (
	"math"

	"physdes/internal/sampling"
	"physdes/internal/stats"
)

// BatchingRow summarizes the batching baseline of the related-work
// comparison (Steiger & Wilson [17], as discussed in Section 2): to apply
// normal-theory ranking, raw cost measurements are grouped into batches
// large enough that batch means are approximately normal. The paper's
// point: "because procedures of this type need to produce a number of
// normally distributed estimates per configuration, they require a large
// number of initial measurements (batch sizes of over 1000 measurements
// are common), thereby nullifying the efficiency gain due to sampling".
type BatchingRow struct {
	// BatchSize is the smallest batch size whose batch means pass the
	// skew-based normality proxy.
	BatchSize int
	// BatchesNeeded is the number of batch means a ranking procedure
	// consumes (we use the customary 30).
	BatchesNeeded int
	// TotalMeasurements = BatchSize × BatchesNeeded.
	TotalMeasurements int
	// PrimitiveCalls is what the paper's primitive spent on the same
	// selection problem (per configuration, for comparability).
	PrimitiveCalls int64
}

// requiredBatchSize searches for the smallest batch size (in powers-of-two
// refinement) at which the skew of batch means drops under the modified
// Cochran comfort zone |G1| ≤ 0.2 — a proxy for "approximately normal".
func requiredBatchSize(costs []float64, rng *stats.RNG) int {
	for b := 1; b <= len(costs)/8; b *= 2 {
		// Shuffle once per candidate size so batches are random groups.
		shuffled := append([]float64(nil), costs...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		nBatches := len(shuffled) / b
		means := make([]float64, nBatches)
		for i := 0; i < nBatches; i++ {
			means[i] = stats.Mean(shuffled[i*b : (i+1)*b])
		}
		if math.Abs(stats.FisherSkew(means)) <= 0.2 {
			return b
		}
	}
	return len(costs) / 8
}

// BatchingComparison measures, for the Figure 1 pair, the batch size
// needed before batch means of the cost-difference population look normal,
// and contrasts the implied measurement bill with the primitive's actual
// spend on the same selection.
func BatchingComparison(s *Scenario, pair *Pair, p Params) (BatchingRow, error) {
	p = p.withDefaults()
	n := pair.Matrix.N()
	diffs := make([]float64, n)
	for i := 0; i < n; i++ {
		diffs[i] = pair.Matrix.Costs[i][0] - pair.Matrix.Costs[i][1]
	}
	rng := stats.NewRNG(p.Seed + 71)
	b := requiredBatchSize(diffs, rng)

	res, err := sampling.Run(sampling.NewMatrixOracle(pair.Matrix), sampling.Options{
		Scheme: sampling.Delta, Strat: sampling.Progressive,
		Alpha: 0.9, StabilityWindow: 10,
		RNG:       stats.NewRNG(p.Seed + 72),
		Templates: s.W.Partition(),
	})
	if err != nil {
		return BatchingRow{}, err
	}
	const batches = 30
	return BatchingRow{
		BatchSize:         b,
		BatchesNeeded:     batches,
		TotalMeasurements: b * batches,
		PrimitiveCalls:    res.OptimizerCalls,
	}, nil
}
