package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/faultinject"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// TestSelectWarmEmptyBitIdentity pins the degradation contract: warm
// starting from an empty snapshot must be bit-identical to a cold run —
// same RNG consumption, same Selection — at every parallelism.
func TestSelectWarmEmptyBitIdentity(t *testing.T) {
	opt, w, space := scenario(t, 400, 3, 71)
	for _, par := range []int{1, 4, 8} {
		cold := DefaultOptions(9)
		cold.Parallelism = par
		cold.CaptureState = true
		selCold, err := Select(opt, w, space, cold)
		if err != nil {
			t.Fatal(err)
		}
		warm := DefaultOptions(9)
		warm.Parallelism = par
		warm.CaptureState = true
		warm.WarmState = &sampling.StratState{}
		selWarm, err := Select(opt, w, space, warm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(selCold, selWarm) {
			t.Errorf("parallelism %d: empty warm state not bit-identical to cold", par)
		}
		if selWarm.Warm.Started {
			t.Errorf("parallelism %d: empty snapshot engaged the warm path", par)
		}
	}
}

// TestSelectWarmRerunSavesCalls pins the headline warm-start win: re-running
// selection on an unchanged workload from the prior snapshot must at least
// halve the oracle calls while agreeing on the winner.
func TestSelectWarmRerunSavesCalls(t *testing.T) {
	opt, w, space := scenario(t, 600, 4, 2)
	cold := DefaultOptions(7)
	cold.CaptureState = true
	selCold, err := Select(opt, w, space, cold)
	if err != nil {
		t.Fatal(err)
	}
	if selCold.State == nil {
		t.Fatal("no snapshot captured")
	}
	if selCold.State.Incumbent != space[selCold.BestIndex].Fingerprint() {
		t.Error("snapshot incumbent not stamped with the adopted configuration")
	}

	warm := DefaultOptions(8)
	warm.WarmState = selCold.State
	selWarm, err := Select(opt, w, space, warm)
	if err != nil {
		t.Fatal(err)
	}
	if !selWarm.Warm.Started {
		t.Fatal("warm start did not engage on an unchanged workload")
	}
	if selWarm.Warm.TemplatesFresh != 0 {
		t.Errorf("unchanged workload re-piloted %d templates", selWarm.Warm.TemplatesFresh)
	}
	if selWarm.BestIndex != selCold.BestIndex {
		t.Errorf("warm selected %d, cold %d", selWarm.BestIndex, selCold.BestIndex)
	}
	if selWarm.OptimizerCalls*2 > selCold.OptimizerCalls {
		t.Errorf("warm rerun used %d calls vs cold %d: want ≥2× reduction",
			selWarm.OptimizerCalls, selCold.OptimizerCalls)
	}
	t.Logf("cold %d calls → warm %d calls (%.1f×), pilot saved %d",
		selCold.OptimizerCalls, selWarm.OptimizerCalls,
		float64(selCold.OptimizerCalls)/float64(selWarm.OptimizerCalls),
		selWarm.Warm.PilotSaved)
}

// driftScenario builds a drifting-workload fixture: ordered windows with
// template churn and skew drift, plus a fixed configuration space
// enumerated over the union of all windows' queries.
func driftScenario(t *testing.T, windows, size, k int, seed uint64) (*optimizer.Optimizer, []workload.DriftWindow, []*physical.Configuration) {
	t.Helper()
	cat := catalog.TPCD(0.01)
	ws, err := workload.GenTPCDDrift(cat, workload.DriftOptions{
		Windows: windows, Size: size, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var analyses []*sqlparse.Analysis
	for _, dw := range ws {
		for _, q := range dw.W.Queries {
			analyses = append(analyses, q.Analysis)
		}
	}
	cands := physical.EnumerateCandidates(cat, analyses, physical.CandidateOptions{Covering: true, Views: true})
	space := physical.GenerateSpace(cat, cands, k, stats.NewRNG(seed+1),
		physical.SpaceOptions{MinStructures: 3, MaxStructures: 8})
	if len(space) < k {
		t.Fatalf("only %d configurations generated", len(space))
	}
	return optimizer.New(cat), ws, space
}

// TestPrCSGuaranteeWarmStart is the statistical harness for the warm-start
// path: Pr(CS) ≥ α must survive snapshot seeding. Each trial runs window 0
// cold, then chains every later window warm from the previous window's
// snapshot, under template churn and Zipf-parameter drift. The observed
// per-window correct-selection rate must stay within three binomial
// standard errors of α — with a healthy oracle and with 5% injected
// transient faults riding through the retry layer.
func TestPrCSGuaranteeWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo harness skipped in -short mode")
	}
	const (
		trials  = 200
		alpha   = 0.9
		windows = 4
	)
	opt, ws, space := driftScenario(t, windows, 260, 3, 133)
	truth := make([]int, windows)
	flips := 0
	for wi, dw := range ws {
		truth[wi] = exactBest(opt, dw.W, space)
		if wi > 0 && truth[wi] != truth[wi-1] {
			flips++
		}
		// Guard the fixture: every window needs a clear winner, or
		// "correct selection" is ill-defined at δ=0 (on a near-tie even a
		// cold run sits at the α floor, so the harness would measure the
		// fixture, not the warm path).
		m := workload.ComputeCostMatrix(opt, dw.W, space)
		bestCost := m.TotalCost(truth[wi])
		for j := range space {
			if j == truth[wi] {
				continue
			}
			if gap := (m.TotalCost(j) - bestCost) / bestCost; gap < 0.03 {
				t.Fatalf("window %d has a near-tie: config %d within %.2f%% of best", wi, j, 100*gap)
			}
		}
	}
	if flips == 0 {
		t.Fatal("fixture never flips the true best across windows: the stale-prior hazard goes untested")
	}

	cases := []struct {
		name string
		mod  func(o *Options)
	}{
		{name: "clean", mod: func(o *Options) {}},
		{name: "transient-faults", mod: func(o *Options) {
			o.MaxRetries = 5
			o.WrapOracle = func(inner sampling.Oracle) sampling.Oracle {
				return faultinject.New(inner, faultinject.Options{Seed: 77, TransientRate: 0.05})
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			correct := make([]int, windows)
			warmStarted := 0
			for i := 0; i < trials; i++ {
				var prev *sampling.StratState
				for wi, dw := range ws {
					o := DefaultOptions(uint64(2000 + i*windows + wi))
					o.Alpha = alpha
					o.CaptureState = true
					o.WarmState = prev
					tc.mod(&o)
					sel, err := Select(opt, dw.W, space, o)
					if err != nil {
						t.Fatal(err)
					}
					if sel.BestIndex == truth[wi] {
						correct[wi]++
					}
					if wi > 0 && sel.Warm.Started {
						warmStarted++
					}
					if sel.State == nil {
						t.Fatalf("trial %d window %d: no snapshot to chain", i, wi)
					}
					prev = sel.State
				}
			}
			if warmStarted == 0 {
				t.Fatal("the warm path never engaged: the harness is not testing warm starts")
			}
			stderr := math.Sqrt(alpha * (1 - alpha) / trials)
			floor := alpha - 3*stderr
			for wi := range correct {
				rate := float64(correct[wi]) / trials
				t.Logf("%s window %d: correct-selection rate %.3f (floor %.4f)", tc.name, wi, rate, floor)
				if rate < floor {
					t.Errorf("window %d: correct-selection rate %.3f < %.4f = α − 3·stderr under warm start",
						wi, rate, floor)
				}
			}
			t.Logf("%s: warm engaged in %d/%d warm-eligible runs", tc.name, warmStarted, trials*(windows-1))
		})
	}
}

// TestTemplateSignaturesStable pins templateSignatures — each template's
// ID and the Welford moments of its numeric literal positions — as one
// FNV-64 per workload: TPC-D 13K and CRM 6K at the benchmark's seeds, and
// the default TPC-D drift windows.
func TestTemplateSignaturesStable(t *testing.T) {
	tpcd, crm := catalog.TPCD(1), catalog.CRM()
	windows, err := workload.GenTPCDDrift(tpcd, workload.DriftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		gen  func() (*workload.Workload, error)
		want uint64
	}{
		{"tpcd-13k-s1000", func() (*workload.Workload, error) { return workload.GenTPCD(tpcd, 13000, 1000) }, 0x6072d490c7e214d6},
		{"tpcd-13k-s1001", func() (*workload.Workload, error) { return workload.GenTPCD(tpcd, 13000, 1001) }, 0xf2a791398ca6fdaa},
		{"tpcd-13k-s1002", func() (*workload.Workload, error) { return workload.GenTPCD(tpcd, 13000, 1002) }, 0x9d5f8f2c35982800},
		{"crm-6k-s1000", func() (*workload.Workload, error) { return workload.GenCRM(crm, 6000, 1000) }, 0x1839eddc007dadc1},
		{"crm-6k-s1001", func() (*workload.Workload, error) { return workload.GenCRM(crm, 6000, 1001) }, 0xa8df85dfe32f94cc},
		{"crm-6k-s1002", func() (*workload.Workload, error) { return workload.GenCRM(crm, 6000, 1002) }, 0x1708ef01552c66c6},
		{"tpcd-drift-w0", func() (*workload.Workload, error) { return windows[0].W, nil }, 0x8f0ef2bae5a06723},
		{"tpcd-drift-w1", func() (*workload.Workload, error) { return windows[1].W, nil }, 0x13444cf1a31f29b8},
		{"tpcd-drift-w2", func() (*workload.Workload, error) { return windows[2].W, nil }, 0x6760f298d6b7c97a},
	} {
		w, err := c.gen()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		put := func(x uint64) {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
		for _, sig := range templateSignatures(w) {
			put(sig.ID)
			put(uint64(len(sig.Params)))
			for _, p := range sig.Params {
				put(uint64(p.N))
				put(math.Float64bits(p.Mean))
				put(math.Float64bits(p.M2))
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: templateSignatures fnv64=%016x, want %016x", c.name, got, c.want)
		}
	}
}
