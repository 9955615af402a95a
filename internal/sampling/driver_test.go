package sampling

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
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
	opts func(par int) Options
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
	m, tmplIdx := synthMatrix(4000, k, templates, 0.01, 2, 17)
	base := func(scheme Scheme, strat StratMode, seed uint64, par int) Options {
		return Options{
			Scheme: scheme, Strat: strat,
			Alpha: 0.9, StabilityWindow: 5, EliminationThreshold: 0.995, NMin: 20,
			RNG:           stats.NewRNG(seed),
			TemplateIndex: tmplIdx, TemplateCount: templates,
			TemplateSigs: sigsFor(templates), ConfigFingerprints: fpsFor(k),
			CaptureState: true,
			Parallelism:  par,
		}
	}
	callCost := func(q int) float64 { return 1 + float64(tmplIdx[q]*tmplIdx[q]) }
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
				goldenCell{name: fmt.Sprintf("%v/%v/adaptive", scheme, strat), opts: func(par int) Options {
					return base(scheme, strat, 7, par)
				}},
				goldenCell{name: fmt.Sprintf("%v/%v/fixed", scheme, strat), opts: func(par int) Options {
					o := base(scheme, strat, 7, par)
					o.MaxCalls = 3000
					return o
				}})
		}
		cells = append(cells,
			goldenCell{name: fmt.Sprintf("%v/progressive/warm", scheme), warm: true, opts: func(par int) Options {
				return base(scheme, Progressive, 9, par)
			}},
			goldenCell{name: fmt.Sprintf("%v/progressive/callcost", scheme), opts: func(par int) Options {
				o := base(scheme, Progressive, 11, par)
				o.CallCost = callCost
				return o
			}},
			goldenCell{name: fmt.Sprintf("%v/progressive/variancebound", scheme), opts: func(par int) Options {
				o := base(scheme, Progressive, 13, par)
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
				opts: func(par int) Options {
					return base(scheme, Progressive, 15, par)
				}},
			goldenCell{name: fmt.Sprintf("%v/progressive/warm/drift", scheme), warm: true, resume: reversed,
				opts: func(par int) Options {
					return base(scheme, Progressive, 11, par)
				}})
	}
	return m, cells
}

// TestDriverGolden pins Run's output over the driver golden matrix. The
// committed file holds the Results of a single-worker run, and every
// parallelism level must reproduce it byte for byte. Regenerate with
// go test ./internal/sampling -run TestDriverGolden -update.
func TestDriverGolden(t *testing.T) {
	golden := filepath.Join("testdata", "driver.golden")
	m, cells := driverGoldenCells()
	for _, par := range []int{1, 8} {
		var b strings.Builder
		for _, c := range cells {
			opts := c.opts(par)
			rec := traced(&opts)
			var o Oracle = NewMatrixOracle(m)
			if c.oracle != nil {
				o = c.oracle(NewMatrixOracle(m))
			}
			res, err := Run(o, opts)
			if err != nil {
				t.Fatalf("%s (parallelism %d): %v", c.name, par, err)
			}
			if c.warm {
				resume := m
				if c.resume != nil {
					resume = c.resume
				} else {
					b.WriteString(goldenLine(t, c.name+"/capture", res, trajectory(rec)))
				}
				rerun := c.opts(par)
				rerun.RNG = stats.NewRNG(10)
				rerun.WarmState = res.State
				rec = traced(&rerun)
				if res, err = Run(NewMatrixOracle(resume), rerun); err != nil {
					t.Fatalf("%s rerun (parallelism %d): %v", c.name, par, err)
				}
			}
			b.WriteString(goldenLine(t, c.name, res, trajectory(rec)))
		}
		got := b.String()
		if *update && par == 1 {
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
			t.Errorf("parallelism %d diverged from %s\n--- got ---\n%s--- want ---\n%s", par, golden, got, want)
		}
	}
}
