package sampling

import (
	"fmt"
	"math"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// TestSharedOracle pins a live oracle over the atom store against one over
// the plain optimizer: same dimensions, bit-identical costs both serially
// and fanned out by costBatch, a strictly smaller what-if bill, and a
// working end-to-end Run.
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
	o := NewLiveOracle(optimizer.NewAtomicCache(optimizer.New(cat), 0), w, configs)
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

	// The fanned-out batch returns the same values and, with the surface
	// already memoized, charges nothing new.
	pairs := make([]Pair, 0, o.N()*o.K())
	for i := 0; i < o.N(); i++ {
		for j := 0; j < o.K(); j++ {
			pairs = append(pairs, Pair{Q: i, J: j})
		}
	}
	out := make([]float64, len(pairs))
	before := o.Calls()
	costBatch(o, pairs, out, make([]error, len(pairs)), 4)
	for n, p := range pairs {
		if want := live.Cost(p.Q, p.J); out[n] != want {
			t.Fatalf("costBatch pair %d = %v, want %v", n, out[n], want)
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
// pairwise Cost, and its fan-out over LiveOracle.Cost matches the serial
// path.
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

	// The whole surface is large enough to fan out over the pool.
	var all []Pair
	for q := 0; q < live.N(); q++ {
		for j := 0; j < live.K(); j++ {
			all = append(all, Pair{Q: q, J: j})
		}
	}
	batched := make([]float64, len(all))
	before := live.Calls()
	costBatch(live, all, batched, make([]error, len(all)), 2)
	if got := live.Calls() - before; got != int64(len(all)) {
		t.Errorf("fan-out charged %d calls, want %d (one per pair)", got, len(all))
	}
	for i, p := range all {
		if want := live.Cost(p.Q, p.J); batched[i] != want {
			t.Errorf("pair %d: fanned-out cost %v diverged from serial %v", i, batched[i], want)
		}
	}
}

// TestLiveBatchMatchesSerial pins LiveOracle.BatchCost to pair-by-pair
// Cost over both cost sources — the atom store, costed row by row, and
// the plain optimizer, costed pair by pair — at one, two and eight
// workers. The batch is laid out as the samplers lay out Delta rows: full
// rows, rows over shrinking subsets as after eliminations, and one row
// longer than rowStackLen (repeating configurations), so it is costed in
// pieces; at two and eight workers fanOut's spans cut rows. Values match
// bit for bit, and the store's Calls and Stats match a serial store's.
func TestLiveBatchMatchesSerial(t *testing.T) {
	var _ BatchOracle = (*LiveOracle)(nil)
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, 90, 69)
	if err != nil {
		t.Fatal(err)
	}
	analyses := make([]*sqlparse.Analysis, w.Size())
	for i, q := range w.Queries {
		analyses[i] = q.Analysis
	}
	cands := physical.EnumerateCandidates(cat, analyses, physical.CandidateOptions{Covering: true, Views: true})
	configs := physical.GenerateSpace(cat, cands, 23, stats.NewRNG(70), physical.SpaceOptions{MinStructures: 3, MaxStructures: 8})
	k := len(configs)
	var pairs []Pair
	for q := 0; q < w.Size(); q++ {
		for j := 0; j < k; j++ {
			if q < 30 || (j+q)%(1+q%4) == 0 {
				pairs = append(pairs, Pair{Q: q, J: j})
			}
		}
	}
	for i := 0; i < rowStackLen+37; i++ {
		pairs = append(pairs, Pair{Q: 7, J: (i * 5) % k})
	}
	for _, workers := range []int{2, 8} {
		cut := false
		for s := 1; s < workers; s++ {
			if b := s * len(pairs) / workers; pairs[b-1].Q == pairs[b].Q {
				cut = true
			}
		}
		if !cut {
			t.Fatalf("fixture: no span of %d workers cuts a row", workers)
		}
	}

	sources := []struct {
		name string
		mk   func() CostSource
	}{
		{"atoms", func() CostSource { return optimizer.NewAtomicCache(optimizer.New(cat), 0) }},
		{"optimizer", func() CostSource { return optimizer.New(cat) }},
	}
	for _, src := range sources {
		ref := NewLiveOracle(src.mk(), w, configs)
		want := make([]float64, len(pairs))
		for i, p := range pairs {
			want[i] = ref.Cost(p.Q, p.J)
		}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", src.name, workers), func(t *testing.T) {
				o := NewLiveOracle(src.mk(), w, configs)
				out := make([]float64, len(pairs))
				costBatch(o, pairs, out, make([]error, len(pairs)), workers)
				for i := range pairs {
					if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						t.Fatalf("pair %d %+v: batch %v, serial %v", i, pairs[i], out[i], want[i])
					}
				}
				if o.Calls() != ref.Calls() {
					t.Errorf("batch charged %d calls, serial %d", o.Calls(), ref.Calls())
				}
				if ac, ok := o.Src.(*optimizer.AtomicCache); ok {
					h, m, f, e := ac.Stats()
					rh, rm, rf, re := ref.Src.(*optimizer.AtomicCache).Stats()
					if h != rh || m != rm || f != rf || e != re {
						t.Errorf("batch stats (hits %d, misses %d, fallbacks %d, entries %d), serial (%d, %d, %d, %d)",
							h, m, f, e, rh, rm, rf, re)
					}
				}
			})
		}
	}
}
