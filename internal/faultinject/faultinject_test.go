package faultinject

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"physdes/internal/obs"
	"physdes/internal/obs/recorder"
	"physdes/internal/par"
	"physdes/internal/physical"
	"physdes/internal/resilience"
	"physdes/internal/sampling"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// synthMatrix mirrors the sampling package's synthetic workload: template
// determines cost magnitude, configuration 0 is best by gapFrac per rank.
func synthMatrix(n, k, templates int, gapFrac float64, seed uint64) (*workload.CostMatrix, workload.Partition) {
	rng := stats.NewRNG(seed)
	tmplIdx := make([]int, n)
	tmplBase := make([]float64, templates)
	for t := range tmplBase {
		tmplBase[t] = math.Pow(10, 1+3*float64(t)/float64(templates))
	}
	m := &workload.CostMatrix{Costs: make([][]float64, n)}
	for j := 0; j < k; j++ {
		m.Configs = append(m.Configs, physical.NewConfiguration("C"))
	}
	for i := 0; i < n; i++ {
		t := rng.Intn(templates)
		tmplIdx[i] = t
		base := tmplBase[t] * (1 + 0.1*rng.NormFloat64())
		if base < 1 {
			base = 1
		}
		row := make([]float64, k)
		for j := 0; j < k; j++ {
			row[j] = base * (1 + gapFrac*float64(j)) * (1 + 0.05*rng.NormFloat64())
			if row[j] < 0.1 {
				row[j] = 0.1
			}
		}
		m.Costs[i] = row
	}
	return m, workload.NewPartition(tmplIdx)
}

func runOpts(seed uint64, tmpls workload.Partition, ctx context.Context, reg *obs.Registry) sampling.Options {
	return sampling.Options{
		Scheme: sampling.Delta, Strat: sampling.Progressive,
		Alpha: 0.9, StabilityWindow: 5,
		RNG:       stats.NewRNG(seed),
		Templates: tmpls,
		Ctx:       ctx,
		Metrics:   reg,
	}
}

// tracedRun runs the sampler with a flight recorder attached and also
// returns the run's per-round trajectory, wall-clock timestamps zeroed.
func tracedRun(o sampling.Oracle, opts sampling.Options) (*sampling.Result, []recorder.Round, error) {
	rec := recorder.New("run")
	opts.Tracer = obs.NewTracerSinks(rec)
	res, err := sampling.Run(o, opts)
	rounds := rec.Report().Rounds
	for i := range rounds {
		rounds[i].TSUS = 0
	}
	return res, rounds, err
}

// At fault rate zero the full decorator stack (FaultyOracle under the
// resilience wrapper) must leave the selection byte-identical to the
// unwrapped oracle.
func TestZeroFaultRateByteIdentity(t *testing.T) {
	m, tmpls := synthMatrix(2000, 3, 6, 0.06, 11)
	want, wantRounds, err := tracedRun(sampling.NewMatrixOracle(m), runOpts(5, tmpls, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRounds) == 0 {
		t.Fatal("no round events recorded")
	}
	fo := New(sampling.NewMatrixOracle(m), Options{Seed: 99}) // all rates zero
	w := resilience.Wrap(fo, resilience.Options{MaxRetries: 3, Policy: resilience.Skip})
	got, gotRounds, err := tracedRun(w, runOpts(5, tmpls, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result diverged from unwrapped oracle\ngot  %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(gotRounds, wantRounds) {
		t.Errorf("trajectory diverged from unwrapped oracle (%d vs %d rounds)", len(gotRounds), len(wantRounds))
	}
	if st := fo.Stats(); st != (Stats{}) {
		t.Errorf("injected faults at rate zero: %+v", st)
	}
	if st := w.Stats(); st.Faults != 0 || st.Degraded != 0 {
		t.Errorf("wrapper saw faults at rate zero: %+v", st)
	}

	// With faults injected the selection depends on the fault pattern
	// alone: fault decisions hash (seed, query, config, attempt), so a
	// rerun over fresh decorators replays the same probes, faults and
	// Result.
	for _, scheme := range []sampling.Scheme{sampling.Delta, sampling.Independent} {
		t.Run("faults/"+scheme.String(), func(t *testing.T) {
			var want *sampling.Result
			var wantRounds []recorder.Round
			var wantStats resilience.Stats
			var wantInjected Stats
			for run := 0; run < 2; run++ {
				fo := New(sampling.NewMatrixOracle(m), Options{Seed: 99, TransientRate: 0.05})
				w := resilience.Wrap(fo, resilience.Options{MaxRetries: 1, Policy: resilience.Skip})
				opts := runOpts(5, tmpls, nil, nil)
				opts.Scheme = scheme
				got, gotRounds, err := tracedRun(w, opts)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if run == 0 {
					want, wantRounds, wantStats, wantInjected = got, gotRounds, w.Stats(), fo.Stats()
					if want.DegradedQueries == 0 {
						t.Fatalf("fault injection inert: no query degraded (%+v)", wantStats)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("rerun diverged\ngot  %+v\nwant %+v", got, want)
				}
				if !reflect.DeepEqual(gotRounds, wantRounds) {
					t.Errorf("rerun trajectory diverged (%d vs %d rounds)", len(gotRounds), len(wantRounds))
				}
				if st := w.Stats(); !reflect.DeepEqual(st, wantStats) {
					t.Errorf("rerun wrapper stats %+v, want %+v", st, wantStats)
				}
				if st := fo.Stats(); st != wantInjected {
					t.Errorf("rerun injected %+v, want %+v", st, wantInjected)
				}
			}
		})
	}
}

// Fault decisions must be a pure function of (seed, probe, attempt):
// replaying the same probes yields the same faults, concurrently or not.
func TestFaultPatternDeterministic(t *testing.T) {
	probe := func(parallelism int) ([]float64, []bool) {
		m, _ := synthMatrix(300, 2, 4, 0.05, 3)
		fo := New(sampling.NewMatrixOracle(m), Options{Seed: 7, TransientRate: 0.2})
		var pairs []sampling.Pair
		for i := 0; i < 300; i++ {
			pairs = append(pairs, sampling.Pair{Q: i, J: i % 2})
		}
		out := make([]float64, len(pairs))
		errs := make([]error, len(pairs))
		par.For(len(pairs), parallelism, func(i int) {
			out[i], errs[i] = fo.CostErr(pairs[i].Q, pairs[i].J)
		})
		failed := make([]bool, len(pairs))
		for i, e := range errs {
			failed[i] = e != nil
		}
		return out, failed
	}
	out1, fail1 := probe(1)
	for _, p := range []int{4, 8} {
		out2, fail2 := probe(p)
		if !reflect.DeepEqual(fail1, fail2) || !reflect.DeepEqual(out1, out2) {
			t.Fatalf("fault pattern diverged at parallelism %d", p)
		}
	}
	nFail := 0
	for _, f := range fail1 {
		if f {
			nFail++
		}
	}
	if nFail < 30 || nFail > 90 {
		t.Errorf("injected %d/300 transient faults at rate 0.2 — far off expectation", nFail)
	}
}

// exactBest returns the true total-cost argmin.
func exactBest(m *workload.CostMatrix) int {
	best, bestC := 0, math.Inf(1)
	for j := 0; j < m.K(); j++ {
		if c := m.TotalCost(j); c < bestC {
			best, bestC = j, c
		}
	}
	return best
}

// Under 5% injected transient faults with retries and skip-and-reweight
// degradation, the adaptive guarantee must hold: the empirical correct-
// selection rate across 200 Monte-Carlo trials stays above
// α − 3·stderr(α), and the fault accounting must reconcile exactly across
// the injector, the wrapper and the metrics registry.
func TestMonteCarloPrCSUnderTransientFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo trial matrix is slow; run without -short")
	}
	const trials = 200
	const alpha = 0.9
	m, tmpls := synthMatrix(2500, 3, 6, 0.05, 21)
	truth := exactBest(m)
	correct := 0
	var totRetries, totFaults, totDegradedProbes, totDegradedQueries int64
	for r := 0; r < trials; r++ {
		reg := obs.NewRegistry()
		fo := New(sampling.NewMatrixOracle(m), Options{Seed: uint64(r) + 1, TransientRate: 0.05})
		w := resilience.Wrap(fo, resilience.Options{
			MaxRetries: 3, Policy: resilience.Skip, Metrics: reg,
		})
		res, err := sampling.Run(w, runOpts(uint64(r)+1000, tmpls, nil, reg))
		if err != nil {
			t.Fatalf("trial %d: %v", r, err)
		}
		if res.Best == truth {
			correct++
		}
		st, ist := w.Stats(), fo.Stats()
		snap := reg.Snapshot()
		if snap.Counters["oracle_retries_total"] != st.Retries ||
			snap.Counters["oracle_faults_total"] != st.Faults ||
			snap.Counters["oracle_degraded_queries_total"] != st.Degraded {
			t.Fatalf("trial %d: registry counters diverge from wrapper stats: %v vs %+v", r, snap.Counters, st)
		}
		if st.Faults != ist.Transient+ist.Permanent {
			t.Fatalf("trial %d: wrapper saw %d faults, injector injected %d", r, st.Faults, ist.Transient+ist.Permanent)
		}
		if int64(res.DegradedQueries) > st.Degraded {
			t.Fatalf("trial %d: sampler degraded %d queries but wrapper only degraded %d probes", r, res.DegradedQueries, st.Degraded)
		}
		totRetries += st.Retries
		totFaults += st.Faults
		totDegradedProbes += st.Degraded
		totDegradedQueries += int64(res.DegradedQueries)
	}
	if totFaults == 0 || totRetries == 0 {
		t.Fatalf("fault injection inert: %d faults, %d retries across %d trials", totFaults, totRetries, trials)
	}
	rate := float64(correct) / trials
	floor := alpha - 3*math.Sqrt(alpha*(1-alpha)/trials)
	t.Logf("correct %d/%d (%.3f, floor %.3f); faults=%d retries=%d degradedProbes=%d degradedQueries=%d",
		correct, trials, rate, floor, totFaults, totRetries, totDegradedProbes, totDegradedQueries)
	if rate < floor {
		t.Errorf("correct-selection rate %.3f below floor %.3f under 5%% transient faults", rate, floor)
	}
}

// Permanently broken probes must degrade (skip-and-reweight) rather than
// abort, and the run must still select correctly.
func TestPermanentFaultsDegradeGracefully(t *testing.T) {
	m, tmpls := synthMatrix(2000, 3, 6, 0.08, 31)
	fo := New(sampling.NewMatrixOracle(m), Options{Seed: 5, PermanentRate: 0.01})
	w := resilience.Wrap(fo, resilience.Options{MaxRetries: 2, Policy: resilience.Skip})
	res, err := sampling.Run(w, runOpts(77, tmpls, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != exactBest(m) {
		t.Errorf("Best = %d, want %d", res.Best, exactBest(m))
	}
	if res.DegradedQueries == 0 {
		t.Error("expected degraded queries under 1% permanent faults")
	}
	if fo.Stats().Permanent == 0 {
		t.Error("injector reported no permanent faults")
	}
}

// A burst localized to one query range must only degrade queries inside
// the range.
func TestBurstFaultsAreLocalized(t *testing.T) {
	m, _ := synthMatrix(400, 2, 4, 0.05, 41)
	fo := New(sampling.NewMatrixOracle(m), Options{Seed: 13, BurstLo: 100, BurstHi: 150, BurstRate: 1})
	w := resilience.Wrap(fo, resilience.Options{MaxRetries: 1, Policy: resilience.Skip})
	for i := 0; i < 400; i++ {
		_, err := w.CostErr(i, 0)
		inBurst := i >= 100 && i < 150
		if inBurst && !errors.Is(err, sampling.ErrSkipQuery) {
			t.Fatalf("query %d in burst range: err = %v, want ErrSkipQuery", i, err)
		}
		if !inBurst && err != nil {
			t.Fatalf("query %d outside burst range failed: %v", i, err)
		}
	}
}

// Conservative degradation substitutes an upper bound instead of
// dropping the query; the run completes and still selects correctly.
func TestConservativeFallbackCompletes(t *testing.T) {
	m, tmpls := synthMatrix(2000, 3, 6, 0.08, 51)
	hi := 0.0
	for i := range m.Costs {
		for _, c := range m.Costs[i] {
			if c > hi {
				hi = c
			}
		}
	}
	fo := New(sampling.NewMatrixOracle(m), Options{Seed: 3, TransientRate: 0.2})
	w := resilience.Wrap(fo, resilience.Options{
		MaxRetries: 1, Policy: resilience.Conservative,
		Fallback: func(i, j int) float64 { return hi * 1.1 },
	})
	res, err := sampling.Run(w, runOpts(13, tmpls, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedQueries != 0 {
		t.Errorf("conservative mode substitutes values; sampler should see no skips, got %d", res.DegradedQueries)
	}
	if w.Stats().Degraded == 0 {
		t.Error("expected substituted probes under 20% faults with 1 retry")
	}
}

// cancellingOracle cancels a context after a fixed number of probes —
// a deterministic stand-in for a caller-side timeout.
type cancellingOracle struct {
	*sampling.MatrixOracle
	after  int64
	seen   atomic.Int64
	cancel context.CancelFunc
}

func (o *cancellingOracle) Cost(i, j int) float64 {
	if o.seen.Add(1) == o.after {
		o.cancel()
	}
	return o.MatrixOracle.Cost(i, j)
}

// Cancellation mid-run must surface context.Canceled and leave no
// goroutines behind (checked under -race by the suite).
func TestCancellationCleanShutdown(t *testing.T) {
	m, tmpls := synthMatrix(2000, 3, 6, 0.05, 61)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := &cancellingOracle{MatrixOracle: sampling.NewMatrixOracle(m), after: 40, cancel: cancel}
	fo := New(o, Options{Seed: 1})
	w := resilience.Wrap(fo, resilience.Options{MaxRetries: 2, Policy: resilience.Skip})
	_, err := sampling.Run(w, runOpts(7, tmpls, ctx, nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Any goroutine drains after cancellation; give the scheduler a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("leaked goroutines: %d before, %d after", before, after)
	}
}

// A pre-cancelled context returns immediately without touching the
// oracle.
func TestPreCancelledContext(t *testing.T) {
	m, tmpls := synthMatrix(500, 2, 4, 0.05, 71)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := sampling.NewMatrixOracle(m)
	_, err := sampling.Run(o, runOpts(7, tmpls, ctx, nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if o.Calls() != 0 {
		t.Errorf("pre-cancelled run charged %d oracle calls", o.Calls())
	}
}
