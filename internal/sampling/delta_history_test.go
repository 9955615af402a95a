package sampling

import (
	"testing"

	"physdes/internal/obs"
	"physdes/internal/stats"
)

// TestDeltaRowHistoryHoldsLiveCosts pins the Delta row layout: the history
// keeps one cost per live configuration per sampled row — exactly the
// costs the sampler requested — so over a MatrixOracle, which charges one
// call per requested cost, the stored count equals OptimizerCalls. It also
// replays the history the way incumbent changes and splits do and checks
// the result against the running accumulators bit for bit: the template
// columns of all k configurations once their stale cross sums are synced,
// and the stratum columns of the alive ones (the only stratum columns the
// sampler reads; an eliminated configuration's keep its last incumbent's
// cross sums).
//
// The incumbent changes in mid-run after eliminations, so template cross
// sums are left stale while later rows fold in. Once synced, the lazily
// rebuilt template sums must equal an eager replay of the whole history
// against the final incumbent.
func TestDeltaRowHistoryHoldsLiveCosts(t *testing.T) {
	const k, templates = 50, 12
	m, tmpls := synthMatrix(4000, k, templates, 0.004, 2, 71)
	var log eventLog
	d := newDeltaSampler(NewMatrixOracle(m), Options{
		Scheme: Delta, Strat: Progressive, Alpha: 0.9, StabilityWindow: 5,
		EliminationThreshold: 0.995, NMin: 20, RNG: stats.NewRNG(5),
		Templates: tmpls,
		Tracer:    obs.NewTracerSinks(&log),
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
	changedAfterElim, seenElim, best := false, false, -1
	for _, e := range log.events {
		switch e.Name {
		case "eliminate":
			seenElim = true
		case "round":
			b := attr(e, "best").(int)
			if best >= 0 && b != best && seenElim {
				changedAfterElim = true
			}
			best = b
		}
	}
	if !changedAfterElim {
		t.Fatal("fixture must change the incumbent after an elimination")
	}
	if got := int64(len(d.hist)); got != res.OptimizerCalls {
		t.Errorf("row history stores %d costs, the run charged %d calls", got, res.OptimizerCalls)
	}
	if d.nrows != res.SampledQueries {
		t.Errorf("row history holds %d rows, the run sampled %d queries", d.nrows, res.SampledQueries)
	}

	// Configuration j's costs are a prefix of the history: the per-template
	// counts of the warm snapshot add up to its prefix length.
	d.syncCross()
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

	// An eager replay of the whole history against the final incumbent
	// reproduces every template accumulator and every alive
	// configuration's stratum accumulators, the lazily rebuilt cross sums
	// included; so does a rebuild against the unchanged incumbent, once
	// synced for every configuration.
	eagerT := make([][]moments, templates)
	for tm := range eagerT {
		eagerT[tm] = make([]moments, k)
	}
	eagerS := make([][]moments, len(d.strata))
	for h := range eagerS {
		eagerS[h] = make([]moments, k)
	}
	for c := d.rowWalk(); c.next(); {
		cb := c.costs[indexOf(c.cfgs, d.best)]
		for i, j := range c.cfgs {
			eagerT[c.tmpl][j].addRow(cb, c.costs[i])
			eagerS[d.stratumOf[c.tmpl]][j].addRow(cb, c.costs[i])
		}
	}
	check := func(when string) {
		t.Helper()
		for tm := range eagerT {
			for j := 0; j < k; j++ {
				if eagerT[tm][j] != d.tcols[tm][j] {
					t.Fatalf("%s: template %d config %d: eager replay %+v, lazily synced %+v", when, tm, j, eagerT[tm][j], d.tcols[tm][j])
				}
			}
		}
		for h, s := range d.strata {
			for _, j := range d.aliveIdx {
				if eagerS[h][j] != s.cols[j] {
					t.Fatalf("%s: stratum %d config %d: eager replay %+v, running %+v", when, h, j, eagerS[h][j], s.cols[j])
				}
			}
		}
	}
	check("after the run")
	d.bestChanged()
	d.syncCross()
	check("after a rebuild")
}
