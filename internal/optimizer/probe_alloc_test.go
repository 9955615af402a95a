package optimizer

import (
	"testing"

	"physdes/internal/obs"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// probeCase is one what-if probe shape the allocation gates pin.
type probeCase struct {
	name string
	sql  string
	cfg  *physical.Configuration
}

func probeCases(t *testing.T) []probeCase {
	t.Helper()
	ix := physical.NewIndex
	join := analyze(t, "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l "+
		"WHERE o.o_orderkey = l.l_orderkey AND l_shipdate < 50")
	view := physical.NewView([]string{"orders", "lineitem"}, join.Joins,
		[]sqlparse.TableColumn{
			{Table: "orders", Column: "o_orderdate"},
			{Table: "orders", Column: "o_orderkey"},
			{Table: "lineitem", Column: "l_extendedprice"},
			{Table: "lineitem", Column: "l_orderkey"},
			{Table: "lineitem", Column: "l_shipdate"},
		}, nil)
	return []probeCase{
		{"single-table", "SELECT l_quantity FROM lineitem WHERE l_shipdate < 100 AND l_quantity = 5 ORDER BY l_shipdate",
			physical.NewConfiguration("c", ix("lineitem", []string{"l_shipdate"}, "l_quantity"), ix("lineitem", []string{"l_quantity"}))},
		{"join", "SELECT c_name, o_orderdate, l_tax FROM customer c, orders o, lineitem l " +
			"WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey AND c_mktsegment = 'SEG#1' AND o_orderdate < 30",
			physical.NewConfiguration("c", ix("orders", []string{"o_custkey"}), ix("lineitem", []string{"l_orderkey"}),
				ix("customer", []string{"c_mktsegment"}), ix("orders", []string{"o_orderkey"}, "o_orderdate"))},
		{"view", "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l " +
			"WHERE o.o_orderkey = l.l_orderkey AND l_shipdate < 50",
			physical.NewConfiguration("c", view, ix("lineitem", []string{"l_shipdate"}))},
		{"update", "UPDATE lineitem SET l_tax = 1 WHERE l_orderkey = 5",
			physical.NewConfiguration("c", ix("lineitem", []string{"l_orderkey"}), ix("lineitem", []string{"l_tax"}), view)},
		{"delete", "DELETE FROM lineitem WHERE l_shipdate < 10",
			physical.NewConfiguration("c", ix("lineitem", []string{"l_shipdate"}), ix("lineitem", []string{"l_tax"}))},
		{"insert", "INSERT INTO lineitem (l_orderkey) VALUES (1)",
			physical.NewConfiguration("c", ix("lineitem", []string{"l_orderkey"}), view)},
	}
}

// TestCostAllocFree pins the what-if call's zero-allocation contract:
// after one warm-up call, Optimizer.Cost allocates nothing for single-table
// SELECTs, joins, view-bearing configurations and every DML kind, with
// and without metrics attached.
func TestCostAllocFree(t *testing.T) {
	for _, tc := range probeCases(t) {
		a := analyze(t, tc.sql)
		for _, withMetrics := range []bool{false, true} {
			o := New(testCat)
			name := tc.name
			if withMetrics {
				o.SetMetrics(obs.NewRegistry())
				name += "/metrics"
			}
			t.Run(name, func(t *testing.T) {
				o.Cost(a, tc.cfg)
				if n := testing.AllocsPerRun(100, func() { o.Cost(a, tc.cfg) }); n != 0 {
					t.Errorf("Cost allocates %v times per call, want 0", n)
				}
			})
		}
	}
}

// TestAtomSharedProbeAllocFree pins the atom-sharing probe: once a
// statement's atoms are stored, costing it under another configuration
// with the same relevant structures (a memo miss that the atom store
// answers) allocates nothing, and neither does a memo hit.
func TestAtomSharedProbeAllocFree(t *testing.T) {
	irrelevant := physical.NewIndex("region", []string{"r_name"})
	for _, tc := range probeCases(t) {
		a := analyze(t, tc.sql)
		t.Run(tc.name, func(t *testing.T) {
			c := NewCachedAtomic(New(testCat))
			want := c.Cost(a, tc.cfg)
			probe := tc.cfg.With("probe", irrelevant)
			calls := c.Inner().Calls()
			if got := c.Atoms().Cost(a, probe); got != want {
				t.Fatalf("atom-shared cost %v, want %v", got, want)
			}
			if n := testing.AllocsPerRun(100, func() { c.Atoms().Cost(a, probe) }); n != 0 {
				t.Errorf("atom-shared probe allocates %v times per call, want 0", n)
			}
			if n := testing.AllocsPerRun(100, func() { c.Cost(a, tc.cfg) }); n != 0 {
				t.Errorf("memo hit allocates %v times per call, want 0", n)
			}
			if got := c.Inner().Calls(); got != calls {
				t.Errorf("stored atoms paid %d inner calls, want 0", got-calls)
			}
		})
	}
}

// TestUpdatePartsObservesLatency pins UpdateParts to the instrumented
// what-if entry: every call it charges is also observed by the
// optimizer_cost_seconds histogram.
func TestUpdatePartsObservesLatency(t *testing.T) {
	r := obs.NewRegistry()
	o := New(testCat)
	o.SetMetrics(r)
	cfg := physical.NewConfiguration("c", physical.NewIndex("lineitem", []string{"l_orderkey"}))
	for _, sql := range []string{
		"UPDATE lineitem SET l_tax = 1 WHERE l_orderkey = 5",
		"DELETE FROM lineitem WHERE l_orderkey = 7",
	} {
		o.UpdateParts(analyze(t, sql), cfg)
	}
	calls := r.Counter("optimizer_calls_total").Value()
	if calls != 2 {
		t.Fatalf("optimizer_calls_total = %d, want 2", calls)
	}
	if n := r.Histogram("optimizer_cost_seconds").Count(); n != calls {
		t.Errorf("optimizer_cost_seconds count = %d, want calls_total %d", n, calls)
	}
}
