package sampling

import (
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// Force the Independent sampler through Algorithm 2: few templates with
// wildly different magnitudes, a tiny gap, and a small n_min so the split
// gate (expected allocation ≥ 2·n_min, all templates observed) opens.
func TestIndependentProgressiveSplits(t *testing.T) {
	m, tmpls := synthMatrix(6000, 2, 3, 0.002, 3, 61)
	res, err := Run(NewMatrixOracle(m), Options{
		Scheme: Independent, Strat: Progressive,
		MaxCalls: 9000, NMin: 8,
		RNG:       stats.NewRNG(62),
		Templates: tmpls,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Splits == 0 {
		t.Errorf("independent progressive run performed no splits (strata=%d)", res.Strata)
	}
	// Splits sum across configurations; Strata reports the most-refined
	// configuration's stratum count (per-configuration stratification).
	if res.Strata < 2 {
		t.Errorf("no configuration ended up stratified: strata=%d splits=%d", res.Strata, res.Splits)
	}
	if res.Strata > res.Splits+1 {
		t.Errorf("strata %d exceed splits %d + 1", res.Strata, res.Splits)
	}
}

func TestIndependentEliminationFires(t *testing.T) {
	m, tmpls := synthMatrix(3000, 4, 3, 0.05, 1, 63)
	res, err := Run(NewMatrixOracle(m), Options{
		Scheme: Independent, Strat: NoStrat,
		Alpha: 0.999, StabilityWindow: 20, NMin: 10,
		EliminationThreshold: 0.99,
		RNG:                  stats.NewRNG(64),
		Templates:            tmpls,
	})
	if err != nil {
		t.Fatal(err)
	}
	elim := 0
	for _, e := range res.Eliminated {
		if e {
			elim++
		}
	}
	if elim == 0 {
		t.Error("independent sampler never eliminated a configuration")
	}
	if res.Eliminated[res.Best] {
		t.Error("best must survive elimination")
	}
}

func TestLiveOracle(t *testing.T) {
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, 60, 65)
	if err != nil {
		t.Fatal(err)
	}
	configs := []*physical.Configuration{
		physical.NewConfiguration("empty"),
		physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_shipdate"})),
	}
	o := NewLiveOracle(optimizer.NewAtomicCache(optimizer.New(cat)), w, configs)
	if o.N() != 60 || o.K() != 2 {
		t.Fatalf("live oracle dims %d×%d", o.N(), o.K())
	}
	c := o.Cost(3, 1)
	if want := optimizer.New(cat).Cost(w.Queries[3].Analysis, configs[1]); c <= 0 || c != want {
		t.Errorf("cost = %v, direct %v", c, want)
	}
	calls := o.Calls()
	if calls <= 0 {
		t.Errorf("calls = %d, want the atom store's paid atoms", calls)
	}
	// Re-evaluation is served by the atom store: the oracle bills the
	// store's inner calls, which only unseen atoms reach.
	o.Cost(3, 1)
	if o.Calls() != calls {
		t.Errorf("re-evaluation charged %d calls, want 0", o.Calls()-calls)
	}
	// Run the full primitive through the live oracle.
	res, err := Run(o, Options{
		Scheme: Delta, Alpha: 0.9, RNG: stats.NewRNG(66),
		Templates: w.Partition(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best < 0 || res.Best > 1 {
		t.Errorf("best = %d", res.Best)
	}
}
