package sampling

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"physdes/internal/obs"
	"physdes/internal/obs/recorder"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenCell is one Run of the driver golden matrix.
type goldenCell struct {
	name string
	opts func() Options
	// oracle, when set, wraps the cell's matrix oracle.
	oracle func(*MatrixOracle) Oracle
	// warm, when set, first runs opts to capture a snapshot, then records
	// a rerun resumed from it under another seed: on the same matrix after
	// a line for the capture run, or, when resume is set, on resume alone.
	warm   bool
	resume *workload.CostMatrix
}

// skipOracle asks to skip every probe of each query divisible by every:
// the outcome depends only on the pair, so concurrent probes are safe.
type skipOracle struct {
	*MatrixOracle
	every int
}

func (o skipOracle) CostErr(i, j int) (float64, error) {
	c := o.Cost(i, j)
	if i%o.every == 0 {
		return 0, fmt.Errorf("probe (%d,%d): %w", i, j, ErrSkipQuery)
	}
	return c, nil
}

// traced attaches a flight recorder to opts' tracer; its report's Rounds
// are the run's Pr(CS) trajectory.
func traced(opts *Options) *recorder.Recorder {
	rec := recorder.New("run")
	opts.Tracer = obs.NewTracerSinks(rec)
	return rec
}

// trajectory returns the recorded rounds with their wall-clock timestamps
// zeroed, so trajectories of separate runs compare by value.
func trajectory(rec *recorder.Recorder) []recorder.Round {
	rounds := rec.Report().Rounds
	for i := range rounds {
		rounds[i].TSUS = 0
	}
	return rounds
}

// goldenLine renders every deterministic field of a Result: Pr(CS) as IEEE
// bits, the per-round Pr(CS) trajectory and the canonical snapshot as
// FNV-64a hashes.
func goldenLine(t *testing.T, name string, res *Result, rounds []recorder.Round) string {
	t.Helper()
	th := fnv.New64a()
	for _, r := range rounds {
		fmt.Fprintf(th, "%016x", math.Float64bits(r.PrCS))
	}
	state := "none"
	if res.State != nil {
		data, err := res.State.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		sh := fnv.New64a()
		if _, err := sh.Write(data); err != nil {
			t.Fatal(err)
		}
		state = fmt.Sprintf("%016x", sh.Sum64())
	}
	return fmt.Sprintf("%s best=%d prcs=%016x sampled=%d calls=%d strata=%d splits=%d degraded=%d eliminated=%v warm=%+v trace=%d:%016x state=%s\n",
		name, res.Best, math.Float64bits(res.PrCS), res.SampledQueries, res.OptimizerCalls,
		res.Strata, res.Splits, res.DegradedQueries, res.Eliminated, res.Warm,
		len(rounds), th.Sum64(), state)
}

// driverGoldenCells is the matrix pinned by testdata/driver.golden: both
// schemes under every stratification mode in adaptive and fixed-budget
// mode, a warm resume per scheme, the CallCost and VarianceBound hooks,
// then per scheme a run that degrades a fixed set of queries and a warm
// resume on a matrix whose configuration columns are reversed (the drift
// check sheds the contradicted prior).
func driverGoldenCells() (*workload.CostMatrix, []goldenCell) {
	const templates, k = 10, 4
	m, tmpls := synthMatrix(4000, k, templates, 0.01, 2, 17)
	base := func(scheme Scheme, strat StratMode, seed uint64) Options {
		return Options{
			Scheme: scheme, Strat: strat,
			Alpha: 0.9, StabilityWindow: 5, EliminationThreshold: 0.995, NMin: 20,
			RNG:          stats.NewRNG(seed),
			Templates:    tmpls,
			TemplateSigs: sigsFor(templates), ConfigFingerprints: fpsFor(k),
			CaptureState: true,
		}
	}
	callCost := func(q int) float64 { return 1 + float64(tmpls.Of[q]*tmpls.Of[q]) }
	bound := func(n int) (float64, bool) {
		if n >= 400 {
			return 0, false
		}
		return 2e4, true
	}
	var cells []goldenCell
	for _, scheme := range []Scheme{Delta, Independent} {
		for _, strat := range []StratMode{NoStrat, Progressive, Fine, EqualAlloc} {
			cells = append(cells,
				goldenCell{name: fmt.Sprintf("%v/%v/adaptive", scheme, strat), opts: func() Options {
					return base(scheme, strat, 7)
				}},
				goldenCell{name: fmt.Sprintf("%v/%v/fixed", scheme, strat), opts: func() Options {
					o := base(scheme, strat, 7)
					o.MaxCalls = 3000
					return o
				}})
		}
		cells = append(cells,
			goldenCell{name: fmt.Sprintf("%v/progressive/warm", scheme), warm: true, opts: func() Options {
				return base(scheme, Progressive, 9)
			}},
			goldenCell{name: fmt.Sprintf("%v/progressive/callcost", scheme), opts: func() Options {
				o := base(scheme, Progressive, 11)
				o.CallCost = callCost
				return o
			}},
			goldenCell{name: fmt.Sprintf("%v/progressive/variancebound", scheme), opts: func() Options {
				o := base(scheme, Progressive, 13)
				o.VarianceBound = bound
				o.MinSamples = 100
				return o
			}})
	}
	reversed := m.SubsetColumns([]int{3, 2, 1, 0})
	for _, scheme := range []Scheme{Delta, Independent} {
		cells = append(cells,
			goldenCell{name: fmt.Sprintf("%v/progressive/degraded", scheme),
				oracle: func(o *MatrixOracle) Oracle { return skipOracle{MatrixOracle: o, every: 29} },
				opts: func() Options {
					return base(scheme, Progressive, 15)
				}},
			goldenCell{name: fmt.Sprintf("%v/progressive/warm/drift", scheme), warm: true, resume: reversed,
				opts: func() Options {
					return base(scheme, Progressive, 11)
				}})
	}
	return m, cells
}

// TestDriverGolden pins Run's output over the driver golden matrix.
// Regenerate with go test ./internal/sampling -run TestDriverGolden
// -update.
func TestDriverGolden(t *testing.T) {
	golden := filepath.Join("testdata", "driver.golden")
	m, cells := driverGoldenCells()
	var b strings.Builder
	for _, c := range cells {
		opts := c.opts()
		rec := traced(&opts)
		var o Oracle = NewMatrixOracle(m)
		if c.oracle != nil {
			o = c.oracle(NewMatrixOracle(m))
		}
		res, err := Run(o, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.warm {
			resume := m
			if c.resume != nil {
				resume = c.resume
			} else {
				b.WriteString(goldenLine(t, c.name+"/capture", res, trajectory(rec)))
			}
			rerun := c.opts()
			rerun.RNG = stats.NewRNG(10)
			rerun.WarmState = res.State
			rec = traced(&rerun)
			if res, err = Run(NewMatrixOracle(resume), rerun); err != nil {
				t.Fatalf("%s rerun: %v", c.name, err)
			}
		}
		b.WriteString(goldenLine(t, c.name, res, trajectory(rec)))
	}
	got := b.String()
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
		t.Errorf("Run diverged from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// eventLog is a tracer sink that keeps every event in emission order.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Event(e obs.Event) { l.events = append(l.events, e) }
func (l *eventLog) Flush() error      { return nil }

// attr returns the value of an event attribute, nil when absent.
func attr(e obs.Event, key string) any {
	for _, kv := range e.Attrs {
		if kv.Key == key {
			return kv.Value
		}
	}
	return nil
}

// TestEliminationKeepsAlphaBudget pins the bound on elimination's share of
// the α budget at k = 50, where 49 frozen 1 − p_ij charges at the 0.995
// floor alone could sum to 0.245. The best configuration is 1% cheaper
// than the runner-up under 40% per-row noise, so rivals cross the
// threshold gradually and each leaves a charge behind. The summed charges
// must stay below 1 − α, and no sample may be drawn while the incumbent
// is alone with Pr(CS) < α: no sample can raise that Pr(CS), so the run
// would draw until it had costed the whole workload.
func TestEliminationKeepsAlphaBudget(t *testing.T) {
	const n, k, templates, alpha = 10_000, 50, 10, 0.9
	m, tmpls := synthMatrix(n, k, templates, 0.01, 8, 3)
	for seed := uint64(1); seed <= 3; seed++ {
		log := &eventLog{}
		res, err := Run(NewMatrixOracle(m), Options{
			Scheme: Delta, Strat: Progressive,
			Alpha: alpha, StabilityWindow: 10, EliminationThreshold: 0.995,
			RNG:       stats.NewRNG(seed),
			Templates: tmpls,
			Tracer:    obs.NewTracerSinks(log),
		})
		if err != nil {
			t.Fatal(err)
		}
		var charged float64
		loneBelow, wasted := false, 0
		for _, e := range log.events {
			switch e.Name {
			case "round":
				loneBelow = attr(e, "alive").(int) == 1 && attr(e, "prcs").(float64) < alpha
			case "alloc":
				if loneBelow {
					wasted++
				}
			case "eliminate":
				charged += 1 - attr(e, "pair_prcs").(float64)
			}
		}
		if wasted > 0 {
			t.Errorf("seed %d: %d samples drawn while the incumbent was alone below α (calls=%d, sampled=%d of %d)",
				seed, wasted, res.OptimizerCalls, res.SampledQueries, n)
		}
		if charged >= 1-alpha {
			t.Errorf("seed %d: eliminations charged %.4f of Pr(CS), want < 1 − α = %.2f", seed, charged, 1-alpha)
		}
	}
}

// BenchmarkDeltaRounds times the driver's own bookkeeping: a Delta Select
// over a k=200 MatrixOracle, so no optimizer time is included. It reports
// wall time and allocations per round (pilot included), from the
// sampling_rounds_total counter. In all-alive elimination is off, so
// every round carries all 200 configurations and the rounds a run makes
// do not depend on the elimination rule: the figures compare the
// per-round work alone. eliminating runs with the default 0.995
// threshold, so most rows carry a few survivors and incumbent changes
// replay a history of rows folded while more configurations were alive.
func BenchmarkDeltaRounds(b *testing.B) {
	const n, k, templates = 6_000, 200, 40
	m, tmpls := synthMatrix(n, k, templates, 0.005, 3, 5)
	for _, bc := range []struct {
		name string
		elim float64
	}{
		{"all-alive", 0},
		{"eliminating", 0.995},
	} {
		b.Run(bc.name, func(b *testing.B) {
			reg := obs.NewRegistry()
			rounds := reg.Counter("sampling_rounds_total")
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := Run(NewMatrixOracle(m), Options{
					Scheme: Delta, Strat: Progressive,
					Alpha: 0.9, StabilityWindow: 10,
					EliminationThreshold: bc.elim,
					RNG:                  stats.NewRNG(uint64(i) + 1),
					Templates:            tmpls,
					Metrics:              reg,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			r := float64(rounds.Value())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/r, "ns/round")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/r, "allocs/round")
			b.ReportMetric(r/float64(b.N), "rounds/op")
		})
	}
}
