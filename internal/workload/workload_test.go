package workload

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/stats"
)

var (
	tpcdCat = catalog.TPCD(0.01)
	crmCat  = catalog.CRM()
)

func TestParseAndTemplates(t *testing.T) {
	sqls := []string{
		"SELECT l_quantity FROM lineitem WHERE l_partkey = 1",
		"SELECT l_quantity FROM lineitem WHERE l_partkey = 999",
		"SELECT o_totalprice FROM orders WHERE o_orderkey = 5",
	}
	w, err := Parse(tpcdCat, sqls)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 3 {
		t.Errorf("Size = %d", w.Size())
	}
	if w.NumTemplates() != 2 {
		t.Errorf("NumTemplates = %d, want 2", w.NumTemplates())
	}
	tis := w.Templates()
	if len(tis[0].Members) != 2 || tis[0].Members[0] != 0 || tis[0].Members[1] != 1 {
		t.Errorf("template members = %v", tis[0].Members)
	}
	if tis[0].SQL == "" || tis[1].SQL == "" {
		t.Error("template SQL not recorded")
	}
	if of := w.Partition().Of; of[0] != 0 || of[1] != 0 || of[2] != 1 {
		t.Errorf("Partition().Of = %v", of)
	}
	if ti, ok := w.Template(w.Queries[2].Template); !ok || len(ti.Members) != 1 {
		t.Error("Template lookup failed")
	}
}

func TestParseErrorPropagates(t *testing.T) {
	if _, err := Parse(tpcdCat, []string{"SELEKT nope"}); err == nil {
		t.Error("expected parse error")
	}
}

func TestSubset(t *testing.T) {
	sqls := []string{
		"SELECT l_quantity FROM lineitem WHERE l_partkey = 1",
		"SELECT l_quantity FROM lineitem WHERE l_partkey = 2",
		"SELECT o_totalprice FROM orders WHERE o_orderkey = 5",
	}
	w, err := Parse(tpcdCat, sqls)
	if err != nil {
		t.Fatal(err)
	}
	sub := w.Subset([]int{2, 0})
	if sub.Size() != 2 || sub.Queries[0].SQL != sqls[2] || sub.Queries[1].SQL != sqls[0] {
		t.Errorf("subset wrong: %+v", sub.Queries)
	}
	if sub.Queries[0].ID != 0 || sub.Queries[1].ID != 1 {
		t.Error("subset must renumber IDs")
	}
	if sub.NumTemplates() != 2 {
		t.Errorf("subset templates = %d", sub.NumTemplates())
	}
	// Original untouched.
	if w.Queries[0].ID != 0 || w.Size() != 3 {
		t.Error("Subset mutated the original")
	}
}

// checkPartition asserts that w's partition agrees with itself and with
// Templates(): Of and Members describe the same split, templates are in
// first-appearance order and Members are ascending.
func checkPartition(t *testing.T, w *Workload) {
	t.Helper()
	p := w.Partition()
	if len(p.Of) != w.Size() || len(p.Members) != w.NumTemplates() {
		t.Fatalf("partition of %d queries, %d templates; workload has %d, %d",
			len(p.Of), len(p.Members), w.Size(), w.NumTemplates())
	}
	tis := w.Templates()
	seen := 0
	for q, tmpl := range p.Of {
		if tis[tmpl].ID != w.Queries[q].Template {
			t.Fatalf("query %d: Of = %d, template %v; want %v", q, tmpl, tis[tmpl].ID, w.Queries[q].Template)
		}
		if tmpl > seen {
			t.Fatalf("query %d opens template %d before template %d", q, tmpl, seen)
		}
		if tmpl == seen {
			seen++
		}
	}
	total := 0
	for tmpl, ms := range p.Members {
		if !reflect.DeepEqual(ms, tis[tmpl].Members) {
			t.Fatalf("Members[%d] = %v, Templates()[%d].Members = %v", tmpl, ms, tmpl, tis[tmpl].Members)
		}
		for i, q := range ms {
			if p.Of[q] != tmpl {
				t.Fatalf("Members[%d] holds query %d of template %d", tmpl, q, p.Of[q])
			}
			if i > 0 && ms[i-1] >= q {
				t.Fatalf("Members[%d] not ascending: %v", tmpl, ms)
			}
		}
		total += len(ms)
	}
	if total != w.Size() {
		t.Fatalf("Members hold %d queries, want %d", total, w.Size())
	}
	if !reflect.DeepEqual(NewPartition(p.Of), p) {
		t.Fatal("NewPartition(Of) differs from the workload's partition")
	}
}

func TestPartition(t *testing.T) {
	w, err := GenCRM(crmCat, 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, w)

	// A subset renumbers its queries and rebuilds the partition from them:
	// reversing the workload reverses first-appearance order.
	ids := make([]int, 0, w.Size()/2)
	for q := w.Size() - 1; q >= 0; q -= 2 {
		ids = append(ids, q)
	}
	sub := w.Subset(ids)
	checkPartition(t, sub)
	if got, want := sub.Templates()[0].ID, w.Queries[ids[0]].Template; got != want {
		t.Errorf("subset's first template = %v, want %v", got, want)
	}

	// A synthetic index keeps its numbering, gaps included.
	p := NewPartition([]int{2, 0, 2, 2, 0})
	want := Partition{Of: []int{2, 0, 2, 2, 0}, Members: [][]int{{1, 4}, nil, {0, 2, 3}}}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("NewPartition = %+v, want %+v", p, want)
	}
}

func TestGenTPCD(t *testing.T) {
	w, err := GenTPCD(tpcdCat, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 500 {
		t.Fatalf("Size = %d", w.Size())
	}
	if nt := w.NumTemplates(); nt < 12 || nt > NumTPCDTemplates() {
		t.Errorf("templates = %d, want in [12,%d]", nt, NumTPCDTemplates())
	}
	// QGEN produces SELECT-only workloads.
	counts := w.KindCounts()
	if counts["SELECT"] != 500 {
		t.Errorf("kind counts = %v", counts)
	}
	// Determinism.
	w2, err := GenTPCD(tpcdCat, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Queries {
		if w.Queries[i].SQL != w2.Queries[i].SQL {
			t.Fatal("generation not reproducible")
		}
	}
	// Different seed differs.
	w3, _ := GenTPCD(tpcdCat, 500, 43)
	same := 0
	for i := range w.Queries {
		if w.Queries[i].SQL == w3.Queries[i].SQL {
			same++
		}
	}
	if same == 500 {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenCRM(t *testing.T) {
	w, err := GenCRM(crmCat, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 3000 {
		t.Fatalf("Size = %d", w.Size())
	}
	// The paper's CRM trace has >120 distinct templates.
	if nt := w.NumTemplates(); nt <= 120 {
		t.Errorf("templates = %d, want > 120", nt)
	}
	// Mixed DML.
	counts := w.KindCounts()
	for _, kind := range []string{"SELECT", "UPDATE", "INSERT", "DELETE"} {
		if counts[kind] == 0 {
			t.Errorf("no %s statements in CRM trace: %v", kind, counts)
		}
	}
	if counts["SELECT"] < counts["UPDATE"] {
		t.Errorf("trace should be read-mostly: %v", counts)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	w, err := GenTPCD(tpcdCat, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wl.jsonl")
	if err := Save(w, path); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 200 {
		t.Fatalf("store size = %d", st.Size())
	}
	for i := 0; i < 200; i += 37 {
		if st.TemplateOf(i) != uint64(w.Queries[i].Template) {
			t.Errorf("template mismatch at %d", i)
		}
	}
	// Random-permutation sample, single-scan read.
	rng := stats.NewRNG(5)
	ids := st.SampleIDs(50, rng)
	if len(ids) != 50 {
		t.Fatalf("sample size = %d", len(ids))
	}
	seen := make(map[int]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatal("sample with replacement detected")
		}
		seen[id] = true
	}
	sqls, err := st.ReadQueries(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if sqls[i] != w.Queries[id].SQL {
			t.Errorf("query %d text mismatch", id)
		}
	}
	// Oversized sample clamps.
	if got := st.SampleIDs(10_000, rng); len(got) != 200 {
		t.Errorf("clamped sample size = %d", len(got))
	}
}

func TestStoreOpenMissing(t *testing.T) {
	if _, err := OpenStore(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestComputeCostMatrix(t *testing.T) {
	w, err := GenTPCD(tpcdCat, 120, 9)
	if err != nil {
		t.Fatal(err)
	}
	o := optimizer.New(tpcdCat)
	empty := physical.NewConfiguration("empty")
	rich := physical.NewConfiguration("rich",
		physical.NewIndex("lineitem", []string{"l_shipdate"}),
		physical.NewIndex("lineitem", []string{"l_orderkey"}),
		physical.NewIndex("orders", []string{"o_orderkey"}),
		physical.NewIndex("orders", []string{"o_orderdate"}),
		physical.NewIndex("customer", []string{"c_custkey"}),
		physical.NewIndex("partsupp", []string{"ps_partkey"}))
	m := ComputeCostMatrix(o, w, []*physical.Configuration{empty, rich})
	if m.N() != 120 || m.K() != 2 {
		t.Fatalf("matrix %dx%d", m.N(), m.K())
	}
	if o.Calls() != 240 {
		t.Errorf("Calls = %d, want 240", o.Calls())
	}
	// Rich config must win on this SELECT-only workload (monotonicity).
	if m.TotalCost(1) >= m.TotalCost(0) {
		t.Errorf("rich=%v should beat empty=%v", m.TotalCost(1), m.TotalCost(0))
	}
	best, cost := m.BestConfig()
	if best != 1 || cost != m.TotalCost(1) {
		t.Errorf("BestConfig = %d, %v", best, cost)
	}
	col := m.Column(1)
	var s float64
	for _, v := range col {
		s += v
	}
	if s != m.TotalCost(1) {
		t.Error("Column/TotalCost disagree")
	}
	// Every per-query cost positive; rich ≤ empty per query.
	for i := range m.Costs {
		if m.Costs[i][0] <= 0 || m.Costs[i][1] <= 0 {
			t.Fatalf("non-positive cost at %d", i)
		}
		if m.Costs[i][1] > m.Costs[i][0]*(1+1e-9) {
			t.Fatalf("monotonicity violated at query %d: %v > %v", i, m.Costs[i][1], m.Costs[i][0])
		}
	}
	sub := m.SubsetColumns([]int{1})
	if sub.K() != 1 || sub.TotalCost(0) != m.TotalCost(1) {
		t.Error("SubsetColumns wrong")
	}
}

func TestCostMatrixDeterministicAcrossParallelism(t *testing.T) {
	w, err := GenTPCD(tpcdCat, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	o := optimizer.New(tpcdCat)
	cfg := physical.NewConfiguration("c", physical.NewIndex("lineitem", []string{"l_shipdate"}))
	m1 := ComputeCostMatrix(o, w, []*physical.Configuration{cfg})
	m2 := ComputeCostMatrix(o, w, []*physical.Configuration{cfg})
	for i := range m1.Costs {
		if m1.Costs[i][0] != m2.Costs[i][0] {
			t.Fatal("cost matrix not deterministic")
		}
	}
}

func TestStoreCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := osWriteFile(path, []byte(`{"id":0,"template":1,"sql":"SELECT 1"}
not json at all
`)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path); err == nil {
		t.Error("corrupt store should fail to open")
	}
}

func TestStoreReadOrderPreserved(t *testing.T) {
	w, err := GenTPCD(tpcdCat, 50, 17)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wl.jsonl")
	if err := Save(w, path); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// Request in a scrambled order; results must come back in request
	// order despite the single forward scan.
	ids := []int{40, 3, 27, 0, 49, 11}
	sqls, err := st.ReadQueries(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if sqls[i] != w.Queries[id].SQL {
			t.Errorf("position %d: wrong query for id %d", i, id)
		}
	}
}

func osWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
