package sampling

import (
	"fmt"
	"math"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/par"
	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// TestSharedOracle pins a live oracle over the atom store against direct
// costing (a matrix oracle over the full cost surface, one call per pair):
// same dimensions, bit-identical costs both pair by pair and batched by
// costBatch, a strictly smaller what-if bill, and a working end-to-end
// Run.
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
	o := NewLiveOracle(optimizer.NewAtomicCache(optimizer.New(cat)), w, configs)
	if o.N() != 60 || o.K() != 3 {
		t.Fatalf("shared oracle dims %d×%d, want 60×3", o.N(), o.K())
	}

	direct := NewMatrixOracle(workload.ComputeCostMatrix(optimizer.New(cat), w, configs))
	for i := 0; i < o.N(); i++ {
		for j := 0; j < o.K(); j++ {
			if got, want := o.Cost(i, j), direct.Cost(i, j); got != want {
				t.Fatalf("Cost(%d, %d) = %v, direct costing says %v", i, j, got, want)
			}
		}
	}
	// The full surface repeats the shipdate singleton across ix1 and ix2,
	// so sharing must charge strictly fewer inner calls than N*K.
	if o.Calls() >= direct.Calls() {
		t.Errorf("sharing saved nothing: %d calls vs %d direct", o.Calls(), direct.Calls())
	}

	// A batch over the whole surface returns the same values and, with the
	// surface already memoized, charges nothing new.
	pairs := make([]Pair, 0, o.N()*o.K())
	for i := 0; i < o.N(); i++ {
		for j := 0; j < o.K(); j++ {
			pairs = append(pairs, Pair{Q: i, J: j})
		}
	}
	out := make([]float64, len(pairs))
	before := o.Calls()
	costBatch(o, pairs, out, make([]error, len(pairs)))
	for n, p := range pairs {
		if want := direct.M.Costs[p.Q][p.J]; out[n] != want {
			t.Fatalf("costBatch pair %d = %v, want %v", n, out[n], want)
		}
	}
	if o.Calls() != before {
		t.Errorf("re-batching a memoized surface charged %d new calls", o.Calls()-before)
	}

	res, err := Run(o, Options{
		Scheme: Delta, Alpha: 0.9, RNG: stats.NewRNG(66),
		Templates: w.Partition(),
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
// never-failing adapter otherwise, costBatch's pair-by-pair path matches
// direct costing, and so does its batched path over LiveOracle.BatchCost,
// which never bills more than one call per pair.
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
	live := NewLiveOracle(optimizer.NewAtomicCache(optimizer.New(cat)), w, configs)
	direct := workload.ComputeCostMatrix(optimizer.New(cat), w, configs).Costs

	eo := AsErrOracle(live)
	if again := AsErrOracle(eo); again != eo {
		t.Error("AsErrOracle must be the identity on an ErrOracle")
	}
	v, cerr := eo.CostErr(2, 1)
	if cerr != nil {
		t.Fatalf("adapter CostErr failed: %v", cerr)
	}
	if want := direct[2][1]; v != want {
		t.Errorf("CostErr = %v, direct cost = %v", v, want)
	}

	pairs := []Pair{{Q: 0, J: 0}, {Q: 1, J: 1}, {Q: 2, J: 0}, {Q: 3, J: 1}}
	out := make([]float64, len(pairs))
	errs := make([]error, len(pairs))
	costBatch(eo, pairs, out, errs)
	for i, p := range pairs {
		if errs[i] != nil {
			t.Fatalf("pair %d errored: %v", i, errs[i])
		}
		if want := direct[p.Q][p.J]; out[i] != want {
			t.Errorf("pair %d: costBatch %v, direct %v", i, out[i], want)
		}
	}

	// The whole surface, batched by the oracle itself.
	var all []Pair
	for q := 0; q < live.N(); q++ {
		for j := 0; j < live.K(); j++ {
			all = append(all, Pair{Q: q, J: j})
		}
	}
	batched := make([]float64, len(all))
	before := live.Calls()
	costBatch(live, all, batched, make([]error, len(all)))
	if got := live.Calls() - before; got <= 0 || got > int64(len(all)) {
		t.Errorf("batch charged %d calls, want 1..%d (at most one per pair)", got, len(all))
	}
	for i, p := range all {
		if want := direct[p.Q][p.J]; batched[i] != want {
			t.Errorf("pair %d: batched cost %v diverged from direct %v", i, batched[i], want)
		}
	}
}

// TestLiveBatchMatchesSerial pins LiveOracle.BatchCost, which costs the
// atom store row by row, to pair-by-pair Cost. The batch is laid out as the
// samplers lay out Delta rows: full rows, rows over shrinking subsets as
// after eliminations, and one row longer than rowStackLen (repeating
// configurations), so it is costed in pieces. With one worker costBatch
// takes the whole batch; with two and eight the batch is cut into
// contiguous spans, some cutting a row, that concurrent goroutines cost
// through one oracle, as concurrent callers of one atom store do. Values
// match bit for bit, and the store's Calls and Stats match a serial
// store's.
func TestLiveBatchMatchesSerial(t *testing.T) {
	var _ BatchOracle = (*LiveOracle)(nil)
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, 90, 69)
	if err != nil {
		t.Fatal(err)
	}
	analyses := w.Analyses()
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

	ref := NewLiveOracle(optimizer.NewAtomicCache(optimizer.New(cat)), w, configs)
	want := make([]float64, len(pairs))
	for i, p := range pairs {
		want[i] = ref.Cost(p.Q, p.J)
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("atoms/workers=%d", workers), func(t *testing.T) {
			o := NewLiveOracle(optimizer.NewAtomicCache(optimizer.New(cat)), w, configs)
			out := make([]float64, len(pairs))
			if workers == 1 {
				costBatch(o, pairs, out, make([]error, len(pairs)))
			} else {
				par.For(workers, workers, func(s int) {
					lo, hi := s*len(pairs)/workers, (s+1)*len(pairs)/workers
					o.BatchCost(pairs[lo:hi], out[lo:hi], 1)
				})
			}
			for i := range pairs {
				if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
					t.Fatalf("pair %d %+v: batch %v, serial %v", i, pairs[i], out[i], want[i])
				}
			}
			if o.Calls() != ref.Calls() {
				t.Errorf("batch charged %d calls, serial %d", o.Calls(), ref.Calls())
			}
			h, m, e := o.Src.Stats()
			rh, rm, re := ref.Src.Stats()
			if h != rh || m != rm || e != re {
				t.Errorf("batch stats (hits %d, misses %d, entries %d), serial (%d, %d, %d)",
					h, m, e, rh, rm, re)
			}
		})
	}
}
