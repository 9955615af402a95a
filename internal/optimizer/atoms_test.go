package optimizer_test

import (
	"fmt"
	"reflect"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/par"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

var atomsCat = catalog.TPCD(0.01)

// probe is one (statement, configuration) pair costed by the harnesses.
type probe struct {
	Analysis *sqlparse.Analysis
	Config   *physical.Configuration
}

// costConcurrently costs every probe through c.Cost over up to workers
// goroutines, the way the samplers fan a batch of probes out, and returns
// the costs in probe order.
func costConcurrently(c *optimizer.AtomicCache, probes []probe, workers int) []float64 {
	out := make([]float64, len(probes))
	par.For(len(probes), workers, func(i int) {
		out[i] = c.Cost(probes[i].Analysis, probes[i].Config)
	})
	return out
}

// analyze parses and analyzes one statement against the TPC-D catalog
// (this external test package cannot reach the internal-package helper).
func analyze(t *testing.T, src string) *sqlparse.Analysis {
	t.Helper()
	return analyzeUnbound(t, atomsCat, src)
}

// equivScenario bundles one workload/candidate setup for the equivalence
// property test.
type equivScenario struct {
	name  string
	cat   *catalog.Catalog
	w     *workload.Workload
	cands []physical.Structure
}

func equivScenarios(t *testing.T) []equivScenario {
	t.Helper()
	tpcdCat := catalog.TPCD(0.01)
	tw, err := workload.GenTPCD(tpcdCat, 400, 11)
	if err != nil {
		t.Fatalf("GenTPCD: %v", err)
	}
	crmCat := catalog.CRM()
	cw, err := workload.GenCRM(crmCat, 300, 12)
	if err != nil {
		t.Fatalf("GenCRM: %v", err)
	}
	out := []equivScenario{
		{name: "tpcd", cat: tpcdCat, w: tw},
		{name: "crm", cat: crmCat, w: cw},
	}
	for i := range out {
		var analyses []*sqlparse.Analysis
		for _, q := range out[i].w.Queries {
			analyses = append(analyses, q.Analysis)
		}
		out[i].cands = physical.EnumerateCandidates(out[i].cat, analyses,
			physical.CandidateOptions{Covering: true, Views: true})
		if len(out[i].cands) == 0 {
			t.Fatalf("%s: no candidates", out[i].name)
		}
	}
	return out
}

// TestAtomicCostEquivalence is the harness that pins atom sharing to
// direct costing bit-for-bit: over >= 300 randomized (workload subset,
// configuration set) cases across the TPC-D and CRM scenarios, the
// atomic-reassembled costs must DeepEqual the direct Cost results, both
// through a serial Cost loop and through Cost spread over 1/4/8
// concurrent goroutines.
func TestAtomicCostEquivalence(t *testing.T) {
	const (
		casesPerScenario = 150
		queriesPerCase   = 10
		configsPerCase   = 6
	)
	for _, sc := range equivScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			direct := optimizer.New(sc.cat)
			var totalPairs, totalAtomCalls int64
			for cs := 0; cs < casesPerScenario; cs++ {
				seed := uint64(1000*cs + 7)
				rng := stats.NewRNG(seed)
				configs := physical.GenerateSpace(sc.cat, sc.cands, configsPerCase,
					stats.NewRNG(seed+1),
					physical.SpaceOptions{MinStructures: 2, MaxStructures: 10})
				if len(configs) == 0 {
					t.Fatalf("case %d: empty configuration space", cs)
				}
				reqs := make([]probe, 0, queriesPerCase*len(configs))
				for q := 0; q < queriesPerCase; q++ {
					a := sc.w.Queries[rng.Intn(sc.w.Size())].Analysis
					for _, cfg := range configs {
						reqs = append(reqs, probe{Analysis: a, Config: cfg})
					}
				}
				want := make([]float64, len(reqs))
				for i, r := range reqs {
					want[i] = direct.Cost(r.Analysis, r.Config)
				}

				atomic := optimizer.NewAtomicCache(optimizer.New(sc.cat))
				got := make([]float64, len(reqs))
				for i, r := range reqs {
					got[i] = atomic.Cost(r.Analysis, r.Config)
				}
				if !reflect.DeepEqual(want, got) {
					reportFirstDiff(t, sc.name, cs, "Cost", reqs, want, got)
					return
				}
				totalPairs += int64(len(reqs))
				totalAtomCalls += atomic.Calls()

				for _, workers := range []int{1, 4, 8} {
					ab := optimizer.NewAtomicCache(optimizer.New(sc.cat))
					out := costConcurrently(ab, reqs, workers)
					if !reflect.DeepEqual(want, out) {
						reportFirstDiff(t, sc.name, cs,
							fmt.Sprintf("Cost(workers=%d)", workers), reqs, want, out)
						return
					}
					if calls := ab.Calls(); calls != atomic.Calls() {
						t.Fatalf("case %d workers=%d: concurrent Cost charged %d inner calls, serial charged %d",
							cs, workers, calls, atomic.Calls())
					}
				}
			}
			// Guard against the test passing vacuously: sharing must actually
			// shrink the what-if bill.
			if totalAtomCalls >= totalPairs {
				t.Errorf("atom sharing saved nothing: %d inner calls for %d pairs",
					totalAtomCalls, totalPairs)
			}
			t.Logf("%s: %d pairs costed with %d inner calls (%.1fx reduction)",
				sc.name, totalPairs, totalAtomCalls,
				float64(totalPairs)/float64(totalAtomCalls))
		})
	}
}

func reportFirstDiff(t *testing.T, scenario string, cs int, path string, reqs []probe, want, got []float64) {
	t.Helper()
	for i := range want {
		if want[i] != got[i] {
			r := reqs[i]
			t.Fatalf("%s case %d %s: pair %d diverged: direct=%v atomic=%v\nkind=%v tables=%v cfg=%s\natoms=%d",
				scenario, cs, path, i, want[i], got[i],
				r.Analysis.Kind, r.Analysis.Tables, r.Config.Fingerprint(),
				len(optimizer.Decompose(r.Analysis, r.Config)))
		}
	}
	t.Fatalf("%s case %d %s: slices differ but no element does", scenario, cs, path)
}

// TestDecomposeSingleTableSingletons pins the maximally-shared form: a
// single-table SELECT with no matching views decomposes into the empty
// atom plus one singleton atom per relevant index, and irrelevant indexes
// are projected away.
func TestDecomposeSingleTableSingletons(t *testing.T) {
	a := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 37")
	relevant := physical.NewIndex("lineitem", []string{"l_partkey"})
	covering := physical.NewIndex("lineitem", []string{"l_shipdate"}, "l_quantity", "l_partkey")
	irrelevant := physical.NewIndex("orders", []string{"o_orderdate"})
	cfg := physical.NewConfiguration("c", relevant, covering, irrelevant)
	atoms := optimizer.Decompose(a, cfg)
	if len(atoms) != 3 {
		t.Fatalf("got %d atoms, want 3 (empty + 2 singletons)", len(atoms))
	}
	if atoms[0].NumStructures() != 0 {
		t.Errorf("first atom should be empty, has %d structures", atoms[0].NumStructures())
	}
	for _, atom := range atoms[1:] {
		if atom.NumStructures() != 1 {
			t.Errorf("singleton atom has %d structures", atom.NumStructures())
		}
		if atom.Has(irrelevant.ID()) {
			t.Errorf("irrelevant index %s survived decomposition", irrelevant.ID())
		}
	}
}

// TestDecomposeDeterministic pins that decomposition is a pure function of
// the (statement, configuration) pair: repeated calls yield the same atom
// fingerprints in the same order.
func TestDecomposeDeterministic(t *testing.T) {
	a := analyze(t, "SELECT c_name, o_totalprice FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND c_mktsegment = 'SEG#1' ORDER BY o_totalprice")
	cfg := physical.NewConfiguration("c",
		physical.NewIndex("customer", []string{"c_mktsegment"}),
		physical.NewIndex("orders", []string{"o_custkey"}),
		physical.NewIndex("orders", []string{"o_totalprice"}),
	)
	p1 := optimizer.Decompose(a, cfg)
	p2 := optimizer.Decompose(a, cfg)
	if len(p1) != len(p2) {
		t.Fatalf("shape diverged: %+v vs %+v", p1, p2)
	}
	for i := range p1 {
		if p1[i].Fingerprint() != p2[i].Fingerprint() {
			t.Errorf("atom %d fingerprint diverged: %q vs %q",
				i, p1[i].Fingerprint(), p2[i].Fingerprint())
		}
	}
}

// TestDecomposeDML pins the DML projection: every index on the modified
// table and every view containing it must survive (maintenance costs read
// them all), while structures on unrelated tables are projected away.
func TestDecomposeDML(t *testing.T) {
	a := analyze(t, "UPDATE lineitem SET l_quantity = 1 WHERE l_partkey = 3")
	onTable := physical.NewIndex("lineitem", []string{"l_shipdate"})
	offTable := physical.NewIndex("orders", []string{"o_orderdate"})
	cfg := physical.NewConfiguration("c", onTable, offTable)
	atoms := optimizer.Decompose(a, cfg)
	if len(atoms) != 1 {
		t.Fatalf("DML should decompose to one projection atom, got %d", len(atoms))
	}
	atom := atoms[0]
	if !atom.Has(onTable.ID()) {
		t.Errorf("index on modified table %s was dropped", onTable.ID())
	}
	if atom.Has(offTable.ID()) {
		t.Errorf("index on unrelated table %s was kept", offTable.ID())
	}
}

// TestIndexNLCostOrderFree pins the index nested-loop arm to the
// configuration's structure set: indexNLCost takes the cheapest index whose
// lead column is the join column, so two configurations holding the same
// indexes in different orders cost a statement the same, directly and
// through the atom store, and the second order is served from the store.
func TestIndexNLCostOrderFree(t *testing.T) {
	narrow := physical.NewIndex("lineitem", []string{"l_orderkey"})
	covering := physical.NewIndex("lineitem", []string{"l_orderkey"}, "l_quantity")
	date := physical.NewIndex("orders", []string{"o_orderdate"})
	narrowFirst := physical.NewConfiguration("a", date, narrow, covering)
	coveringFirst := physical.NewConfiguration("b", date, covering, narrow)
	s2 := analyze(t, "SELECT o_orderdate, l_quantity FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate = 9")
	direct := optimizer.New(atomsCat)
	want := direct.Cost(s2, narrowFirst)
	if got := direct.Cost(s2, coveringFirst); got != want {
		t.Fatalf("direct cost depends on index order: %v vs %v", got, want)
	}
	// Without the narrow index the plan is dearer, so the covering one is
	// what the cheaper order-free cost reads.
	if alone := direct.Cost(s2, physical.NewConfiguration("n", date, narrow)); alone <= want {
		t.Fatalf("fixture does not exercise the cheapest-index pick: narrow alone costs %v, both %v", alone, want)
	}
	c := optimizer.NewAtomicCache(optimizer.New(atomsCat))
	if got := c.Cost(s2, narrowFirst); got != want {
		t.Errorf("%s: atomic cost %v, direct %v", narrowFirst.Name(), got, want)
	}
	calls := c.Calls()
	hits, _, _ := c.Stats()
	if got := c.Cost(s2, coveringFirst); got != want {
		t.Errorf("%s: atomic cost %v, direct %v", coveringFirst.Name(), got, want)
	}
	if c.Calls() != calls {
		t.Errorf("the second order paid %d inner calls, want 0", c.Calls()-calls)
	}
	if h, _, _ := c.Stats(); h != hits+1 {
		t.Errorf("the second order made %d store hits, want 1", h-hits)
	}
}
