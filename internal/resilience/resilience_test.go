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
// because the sampler probes concurrently.
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
	w := Wrap(f, Options{MaxRetries: 3})
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
