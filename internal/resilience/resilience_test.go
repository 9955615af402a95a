package resilience

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"physdes/internal/obs"
	"physdes/internal/sampling"
)

// flaky is a scripted fallible oracle: fail[i][j] is the number of times
// probe (i, j) fails before succeeding; -1 fails forever (transient),
// -2 fails forever with a permanent error. The maps are mutex-guarded
// because BatchCostErr probes concurrently.
type flaky struct {
	n, k  int
	mu    sync.Mutex
	fail  map[[2]int]int
	tries map[[2]int]int64
	calls atomic.Int64
}

func newFlaky(n, k int) *flaky {
	return &flaky{n: n, k: k, fail: map[[2]int]int{}, tries: map[[2]int]int64{}}
}

func (f *flaky) attempts(i, j int) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tries[[2]int{i, j}]
}

func (f *flaky) Cost(i, j int) float64 {
	c, err := f.CostErr(i, j)
	if err != nil {
		panic(err)
	}
	return c
}

func (f *flaky) CostErr(i, j int) (float64, error) {
	f.calls.Add(1)
	key := [2]int{i, j}
	f.mu.Lock()
	f.tries[key]++
	a := f.tries[key]
	n := f.fail[key]
	f.mu.Unlock()
	switch {
	case n == -2:
		return 0, Permanent(fmt.Errorf("probe (%d,%d): schema missing", i, j))
	case n == -1 || int64(n) >= a:
		return 0, fmt.Errorf("probe (%d,%d): transient attempt %d", i, j, a)
	}
	return float64(100*i + j), nil
}

func (f *flaky) N() int       { return f.n }
func (f *flaky) K() int       { return f.k }
func (f *flaky) Calls() int64 { return f.calls.Load() }

func TestRetrySucceedsWithinBudget(t *testing.T) {
	f := newFlaky(4, 2)
	f.fail[[2]int{1, 0}] = 2 // two transient failures, then success
	w := Wrap(f, Options{MaxRetries: 3, Seed: 7})
	c, err := w.CostErr(1, 0)
	if err != nil {
		t.Fatalf("CostErr: %v", err)
	}
	if c != 100 {
		t.Errorf("cost = %v, want 100", c)
	}
	if got := f.attempts(1, 0); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	st := w.Stats()
	if st.Retries != 2 || st.Faults != 2 || st.Degraded != 0 {
		t.Errorf("stats = %+v, want 2 retries, 2 faults, 0 degraded", st)
	}
	if st.BackoffMS <= 0 {
		t.Error("expected accumulated virtual backoff")
	}
}

func TestRetryExhaustionFailPolicy(t *testing.T) {
	f := newFlaky(4, 2)
	f.fail[[2]int{0, 1}] = -1
	w := Wrap(f, Options{MaxRetries: 2})
	_, err := w.CostErr(0, 1)
	if err == nil {
		t.Fatal("want error after exhausted retries")
	}
	if errors.Is(err, sampling.ErrSkipQuery) {
		t.Error("Fail policy must not degrade to ErrSkipQuery")
	}
	if got := f.attempts(0, 1); got != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

func TestPermanentErrorSkipsRetries(t *testing.T) {
	f := newFlaky(4, 2)
	f.fail[[2]int{2, 1}] = -2
	w := Wrap(f, Options{MaxRetries: 5, Policy: Skip})
	_, err := w.CostErr(2, 1)
	if !errors.Is(err, sampling.ErrSkipQuery) {
		t.Fatalf("err = %v, want ErrSkipQuery", err)
	}
	if got := f.attempts(2, 1); got != 1 {
		t.Errorf("attempts = %d, want 1 (permanent errors are not retried)", got)
	}
}

func TestSkipPolicyAndErrorBudget(t *testing.T) {
	f := newFlaky(8, 2)
	for q := 0; q < 3; q++ {
		f.fail[[2]int{q, 0}] = -1
	}
	reg := obs.NewRegistry()
	w := Wrap(f, Options{MaxRetries: 1, Policy: Skip, ErrorBudget: 2, Metrics: reg})

	for q := 0; q < 2; q++ {
		if _, err := w.CostErr(q, 0); !errors.Is(err, sampling.ErrSkipQuery) {
			t.Fatalf("probe %d: err = %v, want ErrSkipQuery", q, err)
		}
	}
	// Third degradation exceeds the budget.
	if _, err := w.CostErr(2, 0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	st := w.Stats()
	if st.Degraded != 2 {
		t.Errorf("degraded = %d, want 2", st.Degraded)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["oracle_degraded_queries_total"]; got != 2 {
		t.Errorf("oracle_degraded_queries_total = %d, want 2", got)
	}
	if got := snap.Counters["oracle_retries_total"]; got != st.Retries {
		t.Errorf("oracle_retries_total = %d, want %d", got, st.Retries)
	}
	if got := snap.Counters["oracle_faults_total"]; got != st.Faults {
		t.Errorf("oracle_faults_total = %d, want %d", got, st.Faults)
	}
}

func TestConservativePolicySubstitutesFallback(t *testing.T) {
	f := newFlaky(4, 2)
	f.fail[[2]int{3, 1}] = -1
	w := Wrap(f, Options{MaxRetries: 1, Policy: Conservative,
		Fallback: func(i, j int) float64 { return 1e9 + float64(i) }})
	c, err := w.CostErr(3, 1)
	if err != nil {
		t.Fatalf("CostErr: %v", err)
	}
	if c != 1e9+3 {
		t.Errorf("cost = %v, want fallback 1e9+3", c)
	}
	if w.Stats().Degraded != 1 {
		t.Errorf("degraded = %d, want 1", w.Stats().Degraded)
	}
}

func TestBackoffDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		f := newFlaky(4, 2)
		f.fail[[2]int{1, 1}] = 3
		w := Wrap(f, Options{MaxRetries: 3, Seed: 42})
		if _, err := w.CostErr(1, 1); err != nil {
			t.Fatalf("CostErr: %v", err)
		}
		return w.Stats().BackoffMS
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("backoff schedule not deterministic: %v vs %v", a, b)
	}
	// A different seed produces a different jitter schedule.
	f := newFlaky(4, 2)
	f.fail[[2]int{1, 1}] = 3
	w := Wrap(f, Options{MaxRetries: 3, Seed: 43})
	if _, err := w.CostErr(1, 1); err != nil {
		t.Fatalf("CostErr: %v", err)
	}
	if w.Stats().BackoffMS == a {
		t.Error("expected seed to perturb the jitter schedule")
	}
}

func TestBackoffBoundedByMax(t *testing.T) {
	var delays []float64
	f := newFlaky(2, 2)
	f.fail[[2]int{0, 0}] = -1
	w := Wrap(f, Options{MaxRetries: 12, BackoffBaseMS: 1, BackoffMaxMS: 8,
		Sleep: func(ms float64) { delays = append(delays, ms) }})
	w.CostErr(0, 0)
	if len(delays) != 12 {
		t.Fatalf("got %d delays, want 12", len(delays))
	}
	for a, d := range delays {
		if d > 8 {
			t.Errorf("delay[%d] = %v exceeds BackoffMaxMS", a, d)
		}
		if d <= 0 {
			t.Errorf("delay[%d] = %v, want positive", a, d)
		}
	}
}

// timedFlaky reports virtual latencies: spikes[i][j] is the latency of
// probe (i, j) on its first attempt; retries observe latency 1.
type timedFlaky struct {
	*flaky
	spikes map[[2]int]float64
}

func (f *timedFlaky) CostTimed(i, j int) (float64, float64, error) {
	c, err := f.CostErr(i, j)
	lat := 1.0
	if f.attempts(i, j) == 1 {
		if s, ok := f.spikes[[2]int{i, j}]; ok {
			lat = s
		}
	}
	return c, lat, err
}

func TestBatchCostErrMatchesSerial(t *testing.T) {
	mk := func() *Oracle {
		f := newFlaky(16, 3)
		f.fail[[2]int{2, 1}] = 1
		f.fail[[2]int{5, 0}] = -1
		return Wrap(f, Options{MaxRetries: 2, Policy: Skip, Seed: 9})
	}
	var pairs []sampling.Pair
	for q := 0; q < 16; q++ {
		for j := 0; j < 3; j++ {
			pairs = append(pairs, sampling.Pair{Q: q, J: j})
		}
	}
	ref := mk()
	wantOut := make([]float64, len(pairs))
	wantErrs := make([]error, len(pairs))
	ref.BatchCostErr(pairs, wantOut, wantErrs, 1)
	for _, p := range []int{2, 4, 8} {
		w := mk()
		out := make([]float64, len(pairs))
		errs := make([]error, len(pairs))
		w.BatchCostErr(pairs, out, errs, p)
		for i := range pairs {
			if out[i] != wantOut[i] {
				t.Fatalf("parallelism %d: out[%d] = %v, want %v", p, i, out[i], wantOut[i])
			}
			if (errs[i] == nil) != (wantErrs[i] == nil) ||
				(errs[i] != nil && errors.Is(errs[i], sampling.ErrSkipQuery) != errors.Is(wantErrs[i], sampling.ErrSkipQuery)) {
				t.Fatalf("parallelism %d: errs[%d] = %v, want %v", p, i, errs[i], wantErrs[i])
			}
		}
	}
}

func TestWrapInfallibleOracleIsTransparent(t *testing.T) {
	f := newFlaky(4, 2) // no scripted failures
	w := Wrap(f, Options{MaxRetries: 3, Policy: Skip})
	for q := 0; q < 4; q++ {
		for j := 0; j < 2; j++ {
			c, err := w.CostErr(q, j)
			if err != nil {
				t.Fatalf("CostErr(%d,%d): %v", q, j, err)
			}
			if want := float64(100*q + j); c != want {
				t.Errorf("cost(%d,%d) = %v, want %v", q, j, c, want)
			}
		}
	}
	st := w.Stats()
	if st.Retries != 0 || st.Faults != 0 || st.Degraded != 0 {
		t.Errorf("stats = %+v, want all zero on a clean oracle", st)
	}
	if w.Calls() != 8 {
		t.Errorf("Calls = %d, want 8", w.Calls())
	}
}

func TestLatencyHistogramObservesVirtualLatency(t *testing.T) {
	reg := obs.NewRegistry()
	tf := &timedFlaky{flaky: newFlaky(4, 2), spikes: map[[2]int]float64{{1, 0}: 500}}
	// The attached latency histogram routes probes through the timed path.
	w := Wrap(tf, Options{Metrics: reg})
	for q := 0; q < 4; q++ {
		if _, err := w.CostErr(q, 0); err != nil {
			t.Fatal(err)
		}
	}
	hs := reg.Snapshot().Histograms["oracle_latency_seconds"]
	if hs.Count != 4 {
		t.Fatalf("oracle_latency_seconds count = %d, want 4", hs.Count)
	}
	// Latencies are virtual milliseconds observed in seconds: three probes
	// at 1ms, one spike at 500ms.
	if hs.Sum < 0.5 || hs.Sum > 0.6 {
		t.Errorf("sum = %v, want ~0.503", hs.Sum)
	}
	if hs.P99 < 0.25 {
		t.Errorf("p99 = %v, want to reflect the 500ms spike", hs.P99)
	}

	// Failed attempts are not observed; the eventual success is.
	reg2 := obs.NewRegistry()
	tf2 := &timedFlaky{flaky: newFlaky(4, 2), spikes: map[[2]int]float64{}}
	tf2.fail[[2]int{2, 1}] = 2
	w2 := Wrap(tf2, Options{MaxRetries: 3, Metrics: reg2})
	if _, err := w2.CostErr(2, 1); err != nil {
		t.Fatal(err)
	}
	if hs := reg2.Snapshot().Histograms["oracle_latency_seconds"]; hs.Count != 1 {
		t.Errorf("count = %d, want 1 (only the successful attempt observes)", hs.Count)
	}

	// An untimed oracle with metrics registers no latency series and keeps
	// the plain CostErr path.
	reg3 := obs.NewRegistry()
	w3 := Wrap(newFlaky(2, 2), Options{Metrics: reg3})
	if _, err := w3.CostErr(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg3.Snapshot().Histograms["oracle_latency_seconds"]; ok {
		t.Error("untimed oracle should not register oracle_latency_seconds")
	}
}
