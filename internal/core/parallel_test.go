package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/obs"
	"physdes/internal/obs/recorder"
	"physdes/internal/optimizer"
	"physdes/internal/par"
	"physdes/internal/physical"
	"physdes/internal/sampling"
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
	analyses := w.Analyses()
	cands := physical.EnumerateCandidates(cat, analyses, physical.CandidateOptions{Covering: true, Views: false})
	space := physical.GenerateSpace(cat, cands, k, stats.NewRNG(seed+1),
		physical.SpaceOptions{MinStructures: 3, MaxStructures: 8})
	if len(space) < k {
		t.Fatalf("only %d configurations generated", len(space))
	}
	return opt, w, space
}

// TestSelectParallelDeterminism is the determinism contract at the grain
// parallelism keeps: Selects made at once on two goroutines, each over its
// own optimizer with an 8-worker bound derivation, must each produce a
// Selection bit-identical to a lone serial Select — same Best, same
// Pr(CS) down to the last float bit, same call accounting, strata, splits
// and eliminations, the same per-round Pr(CS) trajectory in the flight
// recorder's report, and the same atom-store and optimizer counters in
// the metrics registry — across both sampling schemes, both
// stratification modes of interest, conservative mode, and both
// workloads.
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
	type outcome struct {
		sel    *Selection
		rounds []recorder.Round
		snap   obs.Snapshot
		err    error
	}
	for _, wl := range workloads {
		opt, w, space := wl.build(t)
		for _, tc := range cases {
			if tc.conservative && wl.name != "tpcd" {
				continue // CRM bound derivation is minutes-slow; TPCD covers the path
			}
			t.Run(wl.name+"/"+tc.name, func(t *testing.T) {
				run := func(opt *optimizer.Optimizer, par int) outcome {
					rec := recorder.New("select")
					o := Options{
						Scheme:       tc.scheme,
						Strat:        tc.strat,
						Conservative: tc.conservative,
						Seed:         11,
						Parallelism:  par,
						Tracer:       obs.NewTracerSinks(rec),
						Metrics:      obs.NewRegistry(),
					}
					sel, err := Select(opt, w, space, o)
					return outcome{sel, trajectory(rec), o.Metrics.Snapshot(), err}
				}
				serial := run(opt, 1)
				if serial.err != nil {
					t.Fatal(serial.err)
				}
				const selects = 2
				concurrent := make([]outcome, selects)
				par.For(selects, selects, func(r int) {
					concurrent[r] = run(optimizer.New(opt.Catalog()), 8)
				})
				for r, c := range concurrent {
					if c.err != nil {
						t.Fatalf("concurrent Select %d: %v", r, c.err)
					}
					for _, name := range []string{"optimizer_atom_hits_total", "optimizer_atoms_total", "optimizer_calls_total"} {
						s, p := serial.snap.Counters[name], c.snap.Counters[name]
						if s == 0 || p != s {
							t.Errorf("Select %d: %s: concurrent %d, serial %d (want equal and non-zero)", r, name, p, s)
						}
					}
					if c.sel.BestIndex != serial.sel.BestIndex {
						t.Errorf("Select %d: Best diverged: concurrent %d, serial %d", r, c.sel.BestIndex, serial.sel.BestIndex)
					}
					if c.sel.PrCS != serial.sel.PrCS {
						t.Errorf("Select %d: PrCS diverged: concurrent %v, serial %v", r, c.sel.PrCS, serial.sel.PrCS)
					}
					if c.sel.OptimizerCalls != serial.sel.OptimizerCalls {
						t.Errorf("Select %d: OptimizerCalls diverged: concurrent %d, serial %d",
							r, c.sel.OptimizerCalls, serial.sel.OptimizerCalls)
					}
					if !reflect.DeepEqual(c.sel, serial.sel) {
						t.Errorf("Select %d: Selection not bit-identical:\nconcurrent: %+v\nserial:     %+v", r, c.sel, serial.sel)
					}
					if len(serial.rounds) == 0 || !reflect.DeepEqual(c.rounds, serial.rounds) {
						t.Errorf("Select %d: trajectory not bit-identical: concurrent %d rounds, serial %d", r, len(c.rounds), len(serial.rounds))
					}
				}
			})
		}
	}
}

// TestSelectSharedWorkload is the daemon's case: Selects over one shared
// *Workload, made at once on two goroutines, each return the Selection
// of a lone run, and the workload's template partition, which every
// sampler reads, is unchanged by all of them. A sampler that shuffled or
// split the shared Members in place would change the partition or the
// draws.
func TestSelectSharedWorkload(t *testing.T) {
	opt, w, space := scenario(t, 600, 6, 3)
	before := w.Partition()
	before.Of = slices.Clone(before.Of)
	before.Members = slices.Clone(before.Members)
	for i := range before.Members {
		before.Members[i] = slices.Clone(before.Members[i])
	}
	cases := []struct {
		scheme sampling.Scheme
		strat  sampling.StratMode
	}{
		{sampling.Delta, sampling.Progressive}, // splits the shared-row stratum
		{sampling.Independent, sampling.Fine},  // one stratum per template
	}
	for _, tc := range cases {
		t.Run(tc.scheme.String()+"/"+tc.strat.String(), func(t *testing.T) {
			run := func(opt *optimizer.Optimizer) (*Selection, error) {
				return Select(opt, w, space, Options{Scheme: tc.scheme, Strat: tc.strat, Seed: 11})
			}
			lone, err := run(opt)
			if err != nil {
				t.Fatal(err)
			}
			const selects = 2
			sels := make([]*Selection, selects)
			errs := make([]error, selects)
			par.For(selects, selects, func(r int) {
				sels[r], errs[r] = run(optimizer.New(opt.Catalog()))
			})
			for r := range sels {
				if errs[r] != nil {
					t.Fatalf("concurrent Select %d: %v", r, errs[r])
				}
				if !reflect.DeepEqual(sels[r], lone) {
					t.Errorf("Select %d over the shared workload differs from a lone run:\nshared: %+v\nlone:   %+v", r, sels[r], lone)
				}
			}
			if !reflect.DeepEqual(w.Partition(), before) {
				t.Error("Select modified the workload's shared template partition")
			}
		})
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

// TestSelectSharedOptimizer runs Selects concurrently on one optimizer,
// which Optimizer documents as safe for concurrent use: each Selection,
// its OptimizerCalls included, must equal a lone run's on a fresh
// optimizer, and the shared optimizer must have counted every call. The
// Selects start together behind a barrier, on a workload large enough
// that they overlap; the conservative case counts bound derivation too.
func TestSelectSharedOptimizer(t *testing.T) {
	cat := catalog.TPCD(1)
	w, err := workload.GenTPCD(cat, 2_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cands := physical.EnumerateCandidates(cat, w.Analyses(), physical.CandidateOptions{Covering: true, Views: true})
	space := physical.GenerateSpace(cat, cands, 10, stats.NewRNG(12),
		physical.SpaceOptions{MinStructures: 3, MaxStructures: 10})
	conservative := DefaultOptions(1)
	conservative.Conservative = true
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"default", DefaultOptions(1)},
		{"conservative", conservative},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lone, err := Select(optimizer.New(cat), w, space, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			const selects = 4
			shared := optimizer.New(cat)
			sels := make([]*Selection, selects)
			errs := make([]error, selects)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for r := range sels {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					sels[r], errs[r] = Select(shared, w, space, tc.o)
				}()
			}
			close(start)
			wg.Wait()
			for r := range sels {
				if errs[r] != nil {
					t.Fatalf("concurrent Select %d: %v", r, errs[r])
				}
				if !reflect.DeepEqual(sels[r], lone) {
					t.Errorf("Select %d on the shared optimizer differs from a lone run:\nshared: %+v\nlone:   %+v", r, sels[r], lone)
				}
			}
			if got, want := shared.Calls(), selects*lone.OptimizerCalls; got != want {
				t.Errorf("shared optimizer counted %d calls, want %d (%d Selects of %d)", got, want, selects, lone.OptimizerCalls)
			}
		})
	}
}
