package sampling

import (
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
	batchCost(o, pairs, out, 8)
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
