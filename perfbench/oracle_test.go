package main

import (
	"math"
	"testing"

	"physdes/internal/obs"
	"physdes/internal/sampling"
)

// small is a quick TPC-D selection workload for tests. It selects with two
// workers, so the samplers take the batched oracle path.
var small = selectWorkload{name: "test", db: "tpcd", n: 800, k: 8, draws: 2, spaceSeed: 6, perSecond: 1, parallelism: 2}

// TestTracedRunMatchesUntraced pins the traced run to the untraced one:
// the timing oracle, registry and flight recorder must not change a
// single Selection.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range []selectWorkload{small} {
		t.Run(w.name, func(t *testing.T) {
			scs, _, err := w.setup(7, w.draws)
			if err != nil {
				t.Fatal(err)
			}
			const count = 4
			base := w.runPass(optimizers(scs), scs, count, nil, nil)
			l := &layers{}
			traced := w.runPass(optimizers(scs), scs, count, l, obs.NewRegistry())
			if base.errs != 0 || traced.errs != 0 {
				t.Fatalf("errors: untraced %d, traced %d", base.errs, traced.errs)
			}
			for i := range base.sels {
				a, b := base.sels[i], traced.sels[i]
				if a.BestIndex != b.BestIndex || a.OptimizerCalls != b.OptimizerCalls ||
					a.SampledQueries != b.SampledQueries || a.Strata != b.Strata || a.Splits != b.Splits {
					t.Errorf("seed %d: untraced best=%d calls=%d sampled=%d strata=%d splits=%d, traced best=%d calls=%d sampled=%d strata=%d splits=%d",
						i+1, a.BestIndex, a.OptimizerCalls, a.SampledQueries, a.Strata, a.Splits,
						b.BestIndex, b.OptimizerCalls, b.SampledQueries, b.Strata, b.Splits)
				}
			}
			if base.fingerprint() != traced.fingerprint() {
				t.Errorf("fingerprints differ: %s vs %s", base.fingerprint(), traced.fingerprint())
			}
			if l.oracle.probes.Load() == 0 || l.oracle.batches.Load() == 0 {
				t.Errorf("timing oracle saw %d probes in %d batches; want the batched path in use",
					l.oracle.probes.Load(), l.oracle.batches.Load())
			}
		})
	}
}

// TestTimingOracleKeepsInterfaces checks that the wrapper forwards the
// batch path and adds no fallible one.
func TestTimingOracleKeepsInterfaces(t *testing.T) {
	var times oracleTimes
	matrix := sampling.NewMatrixOracle(nil)
	wrapped := wrapTiming(matrix, &times)
	if _, ok := wrapped.(sampling.BatchOracle); !ok {
		t.Error("wrapping a BatchOracle lost BatchCost")
	}
	if _, ok := wrapped.(sampling.ErrOracle); ok {
		t.Error("the timing oracle must not implement ErrOracle")
	}
	if _, ok := wrapTiming(costOnly{}, &times).(sampling.BatchOracle); ok {
		t.Error("wrapping a plain Oracle must not add BatchCost")
	}
}

type costOnly struct{}

func (costOnly) Cost(i, j int) float64 { return float64(i + j) }
func (costOnly) N() int                { return 1 }
func (costOnly) K() int                { return 1 }
func (costOnly) Calls() int64          { return 0 }

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples must be 0")
	}
}
