package core

import (
	"reflect"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/obs"
	"physdes/internal/obs/recorder"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// crmScenario mirrors scenario() on the CRM mixed-DML trace.
func crmScenario(t *testing.T, n int, k int, seed uint64) (*optimizer.Optimizer, *workload.Workload, []*physical.Configuration) {
	t.Helper()
	cat := catalog.CRM()
	w, err := workload.GenCRM(cat, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	analyses := make([]*sqlparse.Analysis, len(w.Queries))
	for i, q := range w.Queries {
		analyses[i] = q.Analysis
	}
	cands := physical.EnumerateCandidates(cat, analyses, physical.CandidateOptions{Covering: true, Views: false})
	space := physical.GenerateSpace(cat, cands, k, stats.NewRNG(seed+1),
		physical.SpaceOptions{MinStructures: 3, MaxStructures: 8})
	if len(space) < k {
		t.Fatalf("only %d configurations generated", len(space))
	}
	return opt, w, space
}

// TestSelectParallelDeterminism is the determinism contract: for a fixed
// seed, Select with an 8-worker pool must produce a Selection bit-identical
// to the serial run — same Best, same Pr(CS) down to the last float bit,
// same call accounting, strata, splits and eliminations, and the same
// per-round Pr(CS) trajectory in the flight recorder's report, and the
// same atom-store and optimizer counters in the metrics registry —
// across both sampling schemes, both stratification modes of interest, and
// both workloads.
func TestSelectParallelDeterminism(t *testing.T) {
	cases := []struct {
		name         string
		scheme       sampling.Scheme
		strat        sampling.StratMode
		conservative bool
	}{
		{"delta/progressive", sampling.Delta, sampling.Progressive, false},
		{"delta/fine", sampling.Delta, sampling.Fine, false},
		{"independent/progressive", sampling.Independent, sampling.Progressive, false},
		{"independent/fine", sampling.Independent, sampling.Fine, false},
		{"delta/progressive/conservative", sampling.Delta, sampling.Progressive, true},
	}
	workloads := []struct {
		name  string
		build func(t *testing.T) (*optimizer.Optimizer, *workload.Workload, []*physical.Configuration)
	}{
		{"tpcd", func(t *testing.T) (*optimizer.Optimizer, *workload.Workload, []*physical.Configuration) {
			return scenario(t, 600, 6, 3)
		}},
		{"crm", func(t *testing.T) (*optimizer.Optimizer, *workload.Workload, []*physical.Configuration) {
			return crmScenario(t, 500, 5, 4)
		}},
	}
	for _, wl := range workloads {
		opt, w, space := wl.build(t)
		for _, tc := range cases {
			if tc.conservative && wl.name != "tpcd" {
				continue // CRM bound derivation is minutes-slow; TPCD covers the path
			}
			t.Run(wl.name+"/"+tc.name, func(t *testing.T) {
				opts := func(par int) Options {
					return Options{
						Scheme:       tc.scheme,
						Strat:        tc.strat,
						Conservative: tc.conservative,
						Seed:         11,
						Parallelism:  par,
					}
				}
				run := func(par int) (*Selection, []recorder.Round, obs.Snapshot) {
					rec := recorder.New("select")
					o := opts(par)
					o.Tracer = obs.NewTracerSinks(rec)
					o.Metrics = obs.NewRegistry()
					sel, err := Select(opt, w, space, o)
					if err != nil {
						t.Fatal(err)
					}
					return sel, trajectory(rec), o.Metrics.Snapshot()
				}
				serial, serialRounds, serialSnap := run(1)
				parallel, parallelRounds, parallelSnap := run(8)
				for _, name := range []string{"optimizer_atom_hits_total", "optimizer_atoms_total", "optimizer_calls_total"} {
					s, p := serialSnap.Counters[name], parallelSnap.Counters[name]
					if s == 0 || p != s {
						t.Errorf("%s: parallel %d, serial %d (want equal and non-zero)", name, p, s)
					}
				}
				if parallel.BestIndex != serial.BestIndex {
					t.Errorf("Best diverged: parallel %d, serial %d", parallel.BestIndex, serial.BestIndex)
				}
				if parallel.PrCS != serial.PrCS {
					t.Errorf("PrCS diverged: parallel %v, serial %v", parallel.PrCS, serial.PrCS)
				}
				if parallel.OptimizerCalls != serial.OptimizerCalls {
					t.Errorf("OptimizerCalls diverged: parallel %d, serial %d",
						parallel.OptimizerCalls, serial.OptimizerCalls)
				}
				if parallel.SampledQueries != serial.SampledQueries {
					t.Errorf("SampledQueries diverged: parallel %d, serial %d",
						parallel.SampledQueries, serial.SampledQueries)
				}
				if !reflect.DeepEqual(parallel, serial) {
					t.Errorf("Selection not bit-identical:\nparallel: %+v\nserial:   %+v", parallel, serial)
				}
				if len(serialRounds) == 0 || !reflect.DeepEqual(parallelRounds, serialRounds) {
					t.Errorf("trajectory not bit-identical: parallel %d rounds, serial %d", len(parallelRounds), len(serialRounds))
				}
			})
		}
	}
}

// TestSelectParallelismDefault pins the withDefaults contract: 0 resolves
// to all cores, negatives clamp to serial.
func TestSelectParallelismDefault(t *testing.T) {
	if got := (Options{}).withDefaults().Parallelism; got < 1 {
		t.Errorf("default Parallelism = %d, want >= 1", got)
	}
	if got := (Options{Parallelism: -3}).withDefaults().Parallelism; got != 1 {
		t.Errorf("negative Parallelism resolved to %d, want 1", got)
	}
}
