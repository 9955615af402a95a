package sampling

import (
	"testing"

	"physdes/internal/stats"
)

// TestDeltaRowHistoryHoldsLiveCosts pins the Delta row layout: the history
// keeps one cost per live configuration per sampled row — exactly the
// costs the sampler requested — so over a MatrixOracle, which charges one
// call per requested cost, the stored count equals OptimizerCalls. It also
// replays the history the way incumbent changes and splits do and checks
// the result against the running accumulators bit for bit.
func TestDeltaRowHistoryHoldsLiveCosts(t *testing.T) {
	const k, templates = 50, 12
	m, tmplIdx := synthMatrix(4000, k, templates, 0.004, 2, 71)
	d := newDeltaSampler(NewMatrixOracle(m), Options{
		Scheme: Delta, Strat: Progressive, Alpha: 0.9, StabilityWindow: 5,
		EliminationThreshold: 0.995, NMin: 20, RNG: stats.NewRNG(5),
		TemplateIndex: tmplIdx, TemplateCount: templates,
	}.withDefaults())
	res, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	eliminated := 0
	for _, e := range res.Eliminated {
		if e {
			eliminated++
		}
	}
	if eliminated == 0 || res.Splits == 0 {
		t.Fatalf("fixture must eliminate and split: %d eliminated, %d splits", eliminated, res.Splits)
	}
	if got := int64(len(d.hist)); got != res.OptimizerCalls {
		t.Errorf("row history stores %d costs, the run charged %d calls", got, res.OptimizerCalls)
	}
	if d.nrows != res.SampledQueries {
		t.Errorf("row history holds %d rows, the run sampled %d queries", d.nrows, res.SampledQueries)
	}

	// Configuration j's costs are a prefix of the history: the per-template
	// counts of the warm snapshot add up to its prefix length.
	states := templateStates(d.tcols, true)
	for j := 0; j < k; j++ {
		n := 0
		for _, st := range states {
			n += st.Counts[j]
		}
		if want := min(d.elimAt[j], d.nrows); n != want {
			t.Errorf("config %d: %d stored costs, want a prefix of %d rows", j, n, want)
		}
	}

	// Replaying the history per stratum reproduces the running sums; a
	// cross-sum rebuild against the unchanged incumbent reproduces the
	// running cross sums.
	sums := make([][]stats.Kahan, len(d.strata))
	for h := range sums {
		sums[h] = make([]stats.Kahan, k)
	}
	for c := d.rowWalk(); c.next(); {
		for i, j := range c.cfgs {
			sums[d.stratumOf[c.tmpl]][j].Add(c.costs[i])
		}
	}
	cross := make([][]stats.Kahan, len(d.strata))
	for h, s := range d.strata {
		for _, c := range s.cols {
			cross[h] = append(cross[h], c.cross)
		}
	}
	d.bestChanged()
	for h, s := range d.strata {
		for j := 0; j < k; j++ {
			if sums[h][j] != s.cols[j].sum {
				t.Fatalf("stratum %d config %d: replayed sum %v, running sum %v", h, j, sums[h][j], s.cols[j].sum)
			}
			if cross[h][j] != s.cols[j].cross {
				t.Fatalf("stratum %d config %d: rebuilt cross sum %v, running %v", h, j, s.cols[j].cross, cross[h][j])
			}
		}
	}
}
