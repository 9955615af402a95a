package sampling

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"physdes/internal/stats"
)

// serialOracle wraps a MatrixOracle but does NOT implement BatchOracle
// (explicit methods, no embedding, so no promoted BatchCost), exercising
// batchCost's serial fallback.
type serialOracle struct {
	m *MatrixOracle
}

func (o *serialOracle) Cost(i, j int) float64 { return o.m.Cost(i, j) }
func (o *serialOracle) N() int                { return o.m.N() }
func (o *serialOracle) K() int                { return o.m.K() }
func (o *serialOracle) Calls() int64          { return o.m.Calls() }

func TestMatrixOracleBatchCost(t *testing.T) {
	m, _ := synthMatrix(50, 3, 4, 0.1, 1, 7)
	o := NewMatrixOracle(m)
	pairs := []Pair{{0, 0}, {0, 2}, {7, 1}, {49, 0}, {7, 1}}
	out := make([]float64, len(pairs))
	o.BatchCost(pairs, out, 4)
	if got := o.Calls(); got != int64(len(pairs)) {
		t.Errorf("BatchCost charged %d calls, want %d (one per pair)", got, len(pairs))
	}
	ref := NewMatrixOracle(m)
	for i, p := range pairs {
		if want := ref.Cost(p.Q, p.J); out[i] != want {
			t.Errorf("pair %d: batch cost %v, want serial cost %v", i, out[i], want)
		}
	}
}

func TestBatchCostSerialFallback(t *testing.T) {
	m, _ := synthMatrix(50, 3, 4, 0.1, 1, 7)
	o := &serialOracle{m: NewMatrixOracle(m)}
	if _, isBatch := Oracle(o).(BatchOracle); isBatch {
		t.Fatal("serialOracle must not implement BatchOracle for this test to mean anything")
	}
	pairs := []Pair{{3, 0}, {3, 1}, {3, 2}, {11, 0}}
	out := make([]float64, len(pairs))
	costBatch(o, pairs, out, make([]error, len(pairs)), 8)
	if got := o.Calls(); got != int64(len(pairs)) {
		t.Errorf("fallback charged %d calls, want %d", got, len(pairs))
	}
	ref := NewMatrixOracle(m)
	for i, p := range pairs {
		if want := ref.Cost(p.Q, p.J); out[i] != want {
			t.Errorf("pair %d: fallback cost %v, want %v", i, out[i], want)
		}
	}
}

// scriptedErrOracle is a fallible matrix oracle: probe skip answers with
// a wrapped ErrSkipQuery and probe hard with a non-skip error; every
// other probe returns its matrix cost. Outcomes depend only on the pair,
// so concurrent probes are safe.
type scriptedErrOracle struct {
	*MatrixOracle
	skip, hard Pair
}

func (o *scriptedErrOracle) CostErr(i, j int) (float64, error) {
	c := o.Cost(i, j)
	switch (Pair{Q: i, J: j}) {
	case o.skip:
		return 0, fmt.Errorf("probe (%d,%d): %w", i, j, ErrSkipQuery)
	case o.hard:
		return 0, fmt.Errorf("probe (%d,%d): what-if service down", i, j)
	}
	return c, nil
}

// errClass buckets a probe error: 0 success, 1 skip request, 2 hard error.
func errClass(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrSkipQuery):
		return 1
	}
	return 2
}

// TestFallibleBatchMatchesSerial pins costBatch's fallible fan-out to the
// serial CostErr loop: at every parallelism, each slot up to and including
// the first hard error carries the same value and error class, and the
// inline path leaves the slots after that error untouched.
func TestFallibleBatchMatchesSerial(t *testing.T) {
	m, _ := synthMatrix(16, 3, 4, 0.1, 1, 11)
	mk := func() *scriptedErrOracle {
		return &scriptedErrOracle{MatrixOracle: NewMatrixOracle(m), skip: Pair{Q: 2, J: 1}, hard: Pair{Q: 9, J: 0}}
	}
	var pairs []Pair
	for q := 0; q < 16; q++ {
		for j := 0; j < 3; j++ {
			pairs = append(pairs, Pair{Q: q, J: j})
		}
	}
	ref := mk()
	wantOut := make([]float64, len(pairs))
	wantErrs := make([]error, len(pairs))
	firstHard := -1
	for i, p := range pairs {
		wantOut[i], wantErrs[i] = ref.CostErr(p.Q, p.J)
		if errClass(wantErrs[i]) == 2 {
			firstHard = i
			break
		}
	}
	if firstHard < 0 || errClass(wantErrs[7]) != 1 {
		t.Fatal("fixture must script one skip before one hard error")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		o := mk()
		out := make([]float64, len(pairs))
		errs := make([]error, len(pairs))
		costBatch(o, pairs, out, errs, workers)
		for i := 0; i <= firstHard; i++ {
			if out[i] != wantOut[i] || errClass(errs[i]) != errClass(wantErrs[i]) {
				t.Fatalf("parallelism %d: slot %d = (%v, %v), serial (%v, %v)", workers, i, out[i], errs[i], wantOut[i], wantErrs[i])
			}
		}
		if workers == 1 {
			for i := firstHard + 1; i < len(pairs); i++ {
				if out[i] != 0 || errs[i] != nil {
					t.Fatalf("inline path touched slot %d after the hard error", i)
				}
			}
			if got := o.Calls(); got != int64(firstHard+1) {
				t.Errorf("inline path charged %d calls, want %d (stops at the hard error)", got, firstHard+1)
			}
		}
	}
}

// TestRunParallelMatchesSerial is the sampler-level determinism check on a
// matrix oracle: same seed, Parallelism 8 vs 1, identical Result
// and per-round trajectory for both schemes and stratification modes.
func TestRunParallelMatchesSerial(t *testing.T) {
	m, tmpl := synthMatrix(3000, 4, 6, 0.08, 1, 9)
	cases := []struct {
		name   string
		scheme Scheme
		strat  StratMode
	}{
		{"delta/nostrat", Delta, NoStrat},
		{"delta/progressive", Delta, Progressive},
		{"delta/fine", Delta, Fine},
		{"independent/nostrat", Independent, NoStrat},
		{"independent/fine", Independent, Fine},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := func(par int) Options {
				o := Options{
					Scheme:      tc.scheme,
					Strat:       tc.strat,
					Alpha:       0.95,
					RNG:         stats.NewRNG(5),
					Parallelism: par,
				}
				if tc.strat != NoStrat {
					o.TemplateIndex = tmpl
					o.TemplateCount = 6
				}
				return o
			}
			serialOpts, parallelOpts := opts(1), opts(8)
			serialRec, parallelRec := traced(&serialOpts), traced(&parallelOpts)
			serial, err := Run(NewMatrixOracle(m), serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := Run(NewMatrixOracle(m), parallelOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(parallel, serial) {
				t.Errorf("parallel Result diverged from serial:\nparallel: %+v\nserial:   %+v",
					parallel, serial)
			}
			if got, want := trajectory(parallelRec), trajectory(serialRec); len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("parallel trajectory (%d rounds) diverged from serial (%d rounds)", len(got), len(want))
			}
		})
	}
}
