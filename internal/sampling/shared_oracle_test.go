package sampling

import (
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// TestSharedOracle pins the atom-sharing oracle against LiveOracle: same
// dimensions, bit-identical costs on both the serial and batch paths, a
// strictly smaller what-if bill, and a working end-to-end Run.
func TestSharedOracle(t *testing.T) {
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, 60, 65)
	if err != nil {
		t.Fatal(err)
	}
	shipdate := physical.NewIndex("lineitem", []string{"l_shipdate"})
	configs := []*physical.Configuration{
		physical.NewConfiguration("empty"),
		physical.NewConfiguration("ix1", shipdate),
		physical.NewConfiguration("ix2", shipdate,
			physical.NewIndex("orders", []string{"o_orderdate"})),
	}
	o := NewSharedOracle(optimizer.NewAtomicCache(optimizer.New(cat), 0), w, configs)
	if o.N() != 60 || o.K() != 3 {
		t.Fatalf("shared oracle dims %d×%d, want 60×3", o.N(), o.K())
	}

	live := NewLiveOracle(optimizer.New(cat), w, configs)
	for i := 0; i < o.N(); i++ {
		for j := 0; j < o.K(); j++ {
			if got, want := o.Cost(i, j), live.Cost(i, j); got != want {
				t.Fatalf("Cost(%d, %d) = %v, live oracle says %v", i, j, got, want)
			}
		}
	}
	// The full surface repeats the shipdate singleton across ix1 and ix2,
	// so sharing must charge strictly fewer inner calls than N*K.
	if o.Calls() >= live.Calls() {
		t.Errorf("sharing saved nothing: %d calls vs %d direct", o.Calls(), live.Calls())
	}

	// The batch path returns the same values and, with the surface already
	// memoized, charges nothing new.
	pairs := make([]Pair, 0, o.N()*o.K())
	for i := 0; i < o.N(); i++ {
		for j := 0; j < o.K(); j++ {
			pairs = append(pairs, Pair{Q: i, J: j})
		}
	}
	out := make([]float64, len(pairs))
	before := o.Calls()
	o.BatchCost(pairs, out, 4)
	for n, p := range pairs {
		if want := live.Cost(p.Q, p.J); out[n] != want {
			t.Fatalf("BatchCost pair %d = %v, want %v", n, out[n], want)
		}
	}
	if o.Calls() != before {
		t.Errorf("re-batching a memoized surface charged %d new calls", o.Calls()-before)
	}

	res, err := Run(o, Options{
		Scheme: Delta, Alpha: 0.9, RNG: stats.NewRNG(66),
		TemplateIndex: w.TemplateIndexOf(), TemplateCount: w.NumTemplates(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best < 0 || res.Best >= len(configs) {
		t.Errorf("best = %d", res.Best)
	}
}

// TestErrOracleAdapterAndLiveBatch pins the fallible-view plumbing around
// an infallible oracle: AsErrOracle is the identity on an ErrOracle and a
// never-failing adapter otherwise, costBatch's inline path matches
// pairwise Cost, and LiveOracle's batch path matches its serial path.
func TestErrOracleAdapterAndLiveBatch(t *testing.T) {
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, 40, 67)
	if err != nil {
		t.Fatal(err)
	}
	configs := []*physical.Configuration{
		physical.NewConfiguration("empty"),
		physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_shipdate"})),
	}
	live := NewLiveOracle(optimizer.New(cat), w, configs)

	eo := AsErrOracle(live)
	if again := AsErrOracle(eo); again != eo {
		t.Error("AsErrOracle must be the identity on an ErrOracle")
	}
	v, cerr := eo.CostErr(2, 1)
	if cerr != nil {
		t.Fatalf("adapter CostErr failed: %v", cerr)
	}
	if want := live.Cost(2, 1); v != want {
		t.Errorf("CostErr = %v, Cost = %v", v, want)
	}

	pairs := []Pair{{Q: 0, J: 0}, {Q: 1, J: 1}, {Q: 2, J: 0}, {Q: 3, J: 1}}
	out := make([]float64, len(pairs))
	errs := make([]error, len(pairs))
	costBatch(eo, pairs, out, errs, 1)
	for i, p := range pairs {
		if errs[i] != nil {
			t.Fatalf("pair %d errored: %v", i, errs[i])
		}
		if want := live.Cost(p.Q, p.J); out[i] != want {
			t.Errorf("pair %d: costBatch %v, serial %v", i, out[i], want)
		}
	}

	batched := make([]float64, len(pairs))
	live.BatchCost(pairs, batched, 2)
	for i := range pairs {
		if batched[i] != out[i] {
			t.Errorf("pair %d: BatchCost %v diverged from serial %v", i, batched[i], out[i])
		}
	}
}
