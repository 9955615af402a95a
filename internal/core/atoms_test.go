package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"physdes/internal/faultinject"
	"physdes/internal/obs"
	"physdes/internal/obs/recorder"
	"physdes/internal/optimizer"
	"physdes/internal/sampling"
	"physdes/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestPrCSGuaranteeWithAtomSharing re-pins the paper's Pr(CS) >= α
// guarantee with the atom-sharing oracle in the loop (the default since
// sharing landed): over 200 seeded Monte-Carlo selections the observed
// correct-selection rate must stay within three binomial standard errors
// of α, both with a healthy oracle and with 5% injected transient faults
// riding through the retry layer. Sharing returns bit-identical probe
// values, so a regression here means the atom store broke exactness, not
// the statistics.
func TestPrCSGuaranteeWithAtomSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo harness skipped in -short mode")
	}
	const (
		trials = 200
		alpha  = 0.9
	)
	opt, w, space := scenario(t, 500, 4, 21)
	truth := exactBest(opt, w, space)
	m := workload.ComputeCostMatrix(opt, w, space)
	bestCost := m.TotalCost(truth)
	for j := range space {
		if j == truth {
			continue
		}
		if gap := (m.TotalCost(j) - bestCost) / bestCost; gap < 0.01 {
			t.Fatalf("fixture has a near-tie: config %d within %.2f%% of best", j, 100*gap)
		}
	}

	cases := []struct {
		name string
		mod  func(o *Options)
	}{
		{name: "clean", mod: func(o *Options) {}},
		{name: "transient-faults", mod: func(o *Options) {
			// 5% per-attempt transient faults; 5 retries push the residual
			// permanent-failure probability per probe to 0.05^6 ≈ 1.6e-8, so
			// no trial aborts over the harness's probe volume.
			o.MaxRetries = 5
			o.WrapOracle = func(inner sampling.Oracle) sampling.Oracle {
				return faultinject.New(inner, faultinject.Options{Seed: 77, TransientRate: 0.05})
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			correct := 0
			var shared, exhaustive int64
			for i := 0; i < trials; i++ {
				o := DefaultOptions(uint64(1000 + i))
				o.Alpha = alpha
				tc.mod(&o)
				sel, err := Select(opt, w, space, o)
				if err != nil {
					t.Fatal(err)
				}
				if sel.BestIndex == truth {
					correct++
				}
				if sel.PrCS < alpha {
					t.Errorf("trial %d terminated with Pr(CS)=%v < α=%v", i, sel.PrCS, alpha)
				}
				shared += sel.OptimizerCalls
				exhaustive += sel.ExhaustiveCalls
			}
			rate := float64(correct) / trials
			stderr := math.Sqrt(alpha * (1 - alpha) / trials)
			floor := alpha - 3*stderr
			t.Logf("%s: correct-selection rate %.3f over %d trials (floor %.4f); %d shared calls vs %d exhaustive",
				tc.name, rate, trials, floor, shared, exhaustive)
			if rate < floor {
				t.Errorf("correct-selection rate %.3f < %.4f = α − 3·stderr with atom sharing on",
					rate, floor)
			}
		})
	}
}

// TestSelectAtomSharingBitIdentity pins the sharing layer's contract at the
// Selection level: a seeded Select probing through the atom store and one
// whose WrapOracle swaps in direct costing (a matrix oracle over the full
// cost surface, one call per pair) must agree on every decision field — only the what-if call
// bill may differ, and it must differ in sharing's favor, both in the
// Selection and in the flight recorder's RunReport. The decision fields
// are additionally pinned to a golden fixture so an exactness regression
// shows up as a diff even if it breaks both paths symmetrically.
func TestSelectAtomSharingBitIdentity(t *testing.T) {
	opt, w, space := scenario(t, 400, 4, 33)

	run := func(wrap func(sampling.Oracle) sampling.Oracle) (*Selection, *recorder.Recorder) {
		rec := recorder.New("select")
		o := DefaultOptions(91)
		o.WrapOracle = wrap
		o.Tracer = obs.NewTracerSinks(rec)
		sel, err := Select(opt, w, space, o)
		rec.Finish(err)
		if err != nil {
			t.Fatal(err)
		}
		return sel, rec
	}
	direct := workload.ComputeCostMatrix(optimizer.New(opt.Catalog()), w, space)
	selOn, recOn := run(nil)
	selOff, recOff := run(func(sampling.Oracle) sampling.Oracle {
		return sampling.NewMatrixOracle(direct)
	})

	// Every decision field must match; strip the call accounting before
	// comparing so a mismatch anywhere else fails loudly.
	normalize := func(s *Selection) Selection {
		n := *s
		n.OptimizerCalls = 0
		return n
	}
	if a, b := normalize(selOn), normalize(selOff); !reflect.DeepEqual(a, b) {
		t.Fatalf("selection diverged between sharing modes:\non:  %+v\noff: %+v", a, b)
	}
	// So must the Pr(CS) trajectory, round by round, call counts aside.
	roundsOn, roundsOff := trajectory(recOn), trajectory(recOff)
	for _, rounds := range [][]recorder.Round{roundsOn, roundsOff} {
		for i := range rounds {
			rounds[i].Calls = 0
		}
	}
	if !reflect.DeepEqual(roundsOn, roundsOff) {
		t.Fatalf("trajectory diverged between sharing modes: %d vs %d rounds", len(roundsOn), len(roundsOff))
	}
	if selOn.OptimizerCalls >= selOff.OptimizerCalls {
		t.Errorf("atom sharing saved nothing: %d calls on vs %d off",
			selOn.OptimizerCalls, selOff.OptimizerCalls)
	}
	if on, off := recOn.Report().Oracle.Calls, recOff.Report().Oracle.Calls; on >= off {
		t.Errorf("recorder reports %d oracle calls with sharing vs %d without; want strictly fewer", on, off)
	}

	got := fmt.Sprintf("best=%d prcs=%.6f sampled=%d strata=%d splits=%d eliminated=%v trace_len=%d\ncalls_shared=%d calls_direct=%d\n",
		selOn.BestIndex, selOn.PrCS, selOn.SampledQueries, selOn.Strata, selOn.Splits,
		selOn.Eliminated, len(roundsOn), selOn.OptimizerCalls, selOff.OptimizerCalls)
	golden := filepath.Join("testdata", "atom_sharing.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("selection diverged from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
