package optimizer_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestCostsGolden pins the cost model bit for bit: FNV-64 over the
// float64 bits of full cost matrices (TPC-D with views, CRM, and one
// synthetic SELECT joining more than 64 tables) plus the Explain output of
// one statement per plan shape. Any refactor of the what-if path must
// leave testdata/costs.golden byte-unchanged; regenerate it with
// `go test ./internal/optimizer -run TestCostsGolden -update` only for an
// intended cost-model change.
func TestCostsGolden(t *testing.T) {
	var b strings.Builder

	tpcdCat := catalog.TPCD(0.1)
	tw, err := workload.GenTPCD(tpcdCat, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	writeMatrix(&b, "tpcd n=2000 k=20 views", tpcdCat, tw, physical.CandidateOptions{Covering: true, Views: true})

	crmCat := catalog.CRM()
	cw, err := workload.GenCRM(crmCat, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	writeMatrix(&b, "crm n=2000 k=20", crmCat, cw, physical.CandidateOptions{Covering: true})

	wide := wideCRMSelect(t, crmCat, 70)
	writeMatrix(&b, "crm 70-table join", crmCat, workload.New([]*workload.Query{{ID: 0, SQL: "wide", Analysis: wide}}),
		physical.CandidateOptions{Covering: true, Views: true})

	writeExplains(t, &b)

	got := b.String()
	path := filepath.Join("testdata", "costs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("costs diverged from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// writeMatrix costs every statement under k=20 generated configurations
// and records the FNV-64 of the matrix's float64 bits in row-major order.
func writeMatrix(b *strings.Builder, name string, cat *catalog.Catalog, w *workload.Workload, co physical.CandidateOptions) {
	analyses := make([]*sqlparse.Analysis, 0, w.Size())
	for _, q := range w.Queries {
		analyses = append(analyses, q.Analysis)
	}
	cands := physical.EnumerateCandidates(cat, analyses, co)
	configs := physical.GenerateSpace(cat, cands, 20, stats.NewRNG(7), physical.SpaceOptions{})
	m := workload.ComputeCostMatrix(optimizer.New(cat), w, configs)
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range m.Costs {
		for _, c := range row {
			bits := math.Float64bits(c)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	fmt.Fprintf(b, "%s: statements=%d candidates=%d configs=%d fnv64=%016x\n",
		name, w.Size(), len(cands), len(configs), h.Sum64())
}

// wideCRMSelect builds a chain join over n satellite CRM tables with a
// filter on the first and an ORDER BY, so the join phase and the
// relation bookkeeping run past 64 tables.
func wideCRMSelect(t *testing.T, cat *catalog.Catalog, n int) *sqlparse.Analysis {
	t.Helper()
	var from, where []string
	for k := 0; k < n; k++ {
		from = append(from, fmt.Sprintf("aux%03d", k))
		if k > 0 {
			where = append(where, fmt.Sprintf("t%03dfkey = t%03dfid", k-1, k))
		}
	}
	where = append(where, "t000fts < 300", "t010fnum = 7", "t069flabel = 'x'")
	src := "SELECT t000fid, t035flabel, t069fts FROM " + strings.Join(from, ", ") +
		" WHERE " + strings.Join(where, " AND ") + " ORDER BY t000fid"
	st, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	a, err := sqlparse.Analyze(st, cat.Resolve)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(a.Tables) <= 64 {
		t.Fatalf("wide statement joins %d tables, want > 64", len(a.Tables))
	}
	return a
}

// writeExplains records the Explain output (and the exact total) of one
// statement per plan shape.
func writeExplains(t *testing.T, b *strings.Builder) {
	cat := catalog.TPCD(0.01)
	o := optimizer.New(cat)
	parse := func(src string) *sqlparse.Analysis {
		st, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		a, err := sqlparse.Analyze(st, cat.Resolve)
		if err != nil {
			t.Fatalf("Analyze(%q): %v", src, err)
		}
		return a
	}
	ix := physical.NewIndex
	join := parse("SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l " +
		"WHERE o.o_orderkey = l.l_orderkey AND l_shipdate < 50")
	joinView := physical.NewView([]string{"orders", "lineitem"}, join.Joins,
		[]sqlparse.TableColumn{
			{Table: "orders", Column: "o_orderdate"},
			{Table: "orders", Column: "o_orderkey"},
			{Table: "lineitem", Column: "l_extendedprice"},
			{Table: "lineitem", Column: "l_orderkey"},
			{Table: "lineitem", Column: "l_shipdate"},
		}, nil)
	agg := parse("SELECT l_returnflag, l_linestatus, SUM(l_quantity) FROM lineitem " +
		"WHERE l_shipdate <= 300 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag")
	var aggView *physical.View
	for _, c := range physical.EnumerateCandidates(cat, []*sqlparse.Analysis{agg}, physical.CandidateOptions{Views: true}) {
		if v, ok := c.(*physical.View); ok && len(v.GroupBy) > 0 {
			aggView = v
		}
	}
	if aggView == nil {
		t.Fatal("no aggregate view enumerated")
	}
	cases := []struct {
		name string
		a    *sqlparse.Analysis
		cfg  *physical.Configuration
	}{
		{"single-table", parse("SELECT l_quantity FROM lineitem WHERE l_shipdate < 100 AND l_quantity = 5 ORDER BY l_shipdate"),
			physical.NewConfiguration("c", ix("lineitem", []string{"l_shipdate"}, "l_quantity"), ix("lineitem", []string{"l_quantity"}))},
		{"join", parse("SELECT c_name, o_orderdate, l_tax FROM customer c, orders o, lineitem l " +
			"WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey AND c_mktsegment = 'SEG#1' AND o_orderdate < 30"),
			physical.NewConfiguration("c", ix("orders", []string{"o_custkey"}), ix("lineitem", []string{"l_orderkey"}), ix("customer", []string{"c_mktsegment"}))},
		{"view-matched", join, physical.NewConfiguration("c", joinView, ix("lineitem", []string{"l_shipdate"}))},
		{"aggregate-view", agg, physical.NewConfiguration("c", aggView)},
		{"update", parse("UPDATE lineitem SET l_tax = 1 WHERE l_orderkey = 5"),
			physical.NewConfiguration("c", ix("lineitem", []string{"l_orderkey"}), ix("lineitem", []string{"l_tax"}), joinView)},
		{"delete", parse("DELETE FROM lineitem WHERE l_shipdate < 10"),
			physical.NewConfiguration("c", ix("lineitem", []string{"l_shipdate"}), ix("lineitem", []string{"l_tax"}))},
		{"insert", parse("INSERT INTO lineitem (l_orderkey) VALUES (1)"),
			physical.NewConfiguration("c", ix("lineitem", []string{"l_orderkey"}), joinView)},
	}
	for _, c := range cases {
		p := o.Explain(c.a, c.cfg)
		fmt.Fprintf(b, "explain %s: total=%016x\n%s", c.name, math.Float64bits(p.Total), p)
	}
}
