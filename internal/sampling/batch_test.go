package sampling

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"physdes/internal/obs/recorder"
	"physdes/internal/par"
	"physdes/internal/stats"
)

// serialOracle wraps a MatrixOracle but does NOT implement BatchOracle
// (explicit methods, no embedding, so no promoted BatchCost), exercising
// costBatch's own paths over Cost.
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
	o.BatchCost(pairs, out, 1)
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

// TestBatchCostSerialFallback pins costBatch over an oracle without
// BatchOracle: a small batch and a whole surface are probed pair by pair
// through the fallible view, and both match serial Cost with one call per
// pair.
func TestBatchCostSerialFallback(t *testing.T) {
	m, _ := synthMatrix(50, 3, 4, 0.1, 1, 7)
	if _, isBatch := Oracle(&serialOracle{}).(BatchOracle); isBatch {
		t.Fatal("serialOracle must not implement BatchOracle for this test to mean anything")
	}
	var all []Pair
	for q := 0; q < 50; q++ {
		for j := 0; j < 3; j++ {
			all = append(all, Pair{Q: q, J: j})
		}
	}
	ref := NewMatrixOracle(m)
	for _, pairs := range [][]Pair{{{3, 0}, {3, 1}, {3, 2}, {11, 0}}, all} {
		o := &serialOracle{m: NewMatrixOracle(m)}
		out := make([]float64, len(pairs))
		costBatch(o, pairs, out, make([]error, len(pairs)))
		if got := o.Calls(); got != int64(len(pairs)) {
			t.Errorf("%d pairs charged %d calls, want one per pair", len(pairs), got)
		}
		for i, p := range pairs {
			if want := ref.Cost(p.Q, p.J); out[i] != want {
				t.Errorf("%d pairs: pair %d cost %v, want %v", len(pairs), i, out[i], want)
			}
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

// TestFallibleBatchMatchesSerial pins costBatch's fallible path to the
// serial CostErr loop: each slot up to and including the first hard error
// carries the same value and error class, and the slots after that error
// stay untouched.
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
	o := mk()
	out := make([]float64, len(pairs))
	errs := make([]error, len(pairs))
	costBatch(o, pairs, out, errs)
	for i := 0; i <= firstHard; i++ {
		if out[i] != wantOut[i] || errClass(errs[i]) != errClass(wantErrs[i]) {
			t.Fatalf("slot %d = (%v, %v), serial (%v, %v)", i, out[i], errs[i], wantOut[i], wantErrs[i])
		}
	}
	for i := firstHard + 1; i < len(pairs); i++ {
		if out[i] != 0 || errs[i] != nil {
			t.Fatalf("costBatch touched slot %d after the hard error", i)
		}
	}
	if got := o.Calls(); got != int64(firstHard+1) {
		t.Errorf("costBatch charged %d calls, want %d (stops at the hard error)", got, firstHard+1)
	}
}

// TestRunParallelMatchesSerial is the sampler-level determinism check on a
// matrix oracle, at the grain parallelism keeps (whole runs, as the
// experiments' repeats): runs made at once on several goroutines, each
// with its own oracle over one shared matrix, return the Result and
// per-round trajectory of a run made alone, for both schemes and every
// stratification mode.
func TestRunParallelMatchesSerial(t *testing.T) {
	m, tmpls := synthMatrix(3000, 4, 6, 0.08, 1, 9)
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
			run := func() (*Result, []recorder.Round, error) {
				o := Options{
					Scheme: tc.scheme,
					Strat:  tc.strat,
					Alpha:  0.95,
					RNG:    stats.NewRNG(5),
				}
				if tc.strat != NoStrat {
					o.Templates = tmpls
				}
				rec := traced(&o)
				res, err := Run(NewMatrixOracle(m), o)
				return res, trajectory(rec), err
			}
			serial, serialRounds, err := run()
			if err != nil {
				t.Fatal(err)
			}
			const runs = 4
			results := make([]*Result, runs)
			rounds := make([][]recorder.Round, runs)
			errs := make([]error, runs)
			par.For(runs, runs, func(r int) { results[r], rounds[r], errs[r] = run() })
			for r := range results {
				if errs[r] != nil {
					t.Fatal(errs[r])
				}
				if !reflect.DeepEqual(results[r], serial) {
					t.Errorf("concurrent run %d diverged from a lone run:\nconcurrent: %+v\nlone:       %+v",
						r, results[r], serial)
				}
				if len(serialRounds) == 0 || !reflect.DeepEqual(rounds[r], serialRounds) {
					t.Errorf("concurrent run %d trajectory (%d rounds) diverged from a lone run's (%d rounds)",
						r, len(rounds[r]), len(serialRounds))
				}
			}
		})
	}
}
