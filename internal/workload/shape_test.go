package workload

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/sqlparse"
)

// sharedCorpus exercises every way a literal reaches (or misses) an
// analysis. Neighbouring lines share a signature with different literals;
// others share a template but not a signature.
var sharedCorpus = []string{
	// Unary minus folds into the literal; binary minus does not.
	"SELECT l_quantity FROM lineitem WHERE l_partkey = -5",
	"SELECT l_quantity FROM lineitem WHERE l_partkey = -17",
	"SELECT l_quantity FROM lineitem WHERE l_partkey = -0",
	"SELECT l_quantity FROM lineitem WHERE l_partkey = --5",
	"SELECT l_quantity FROM lineitem WHERE l_partkey = --12.5",
	"SELECT l_quantity FROM lineitem WHERE l_partkey = 5",
	"SELECT l_quantity FROM lineitem WHERE l_quantity - 5 > 3",
	"SELECT l_quantity FROM lineitem WHERE l_quantity - 7 > 1",
	"SELECT l_quantity FROM lineitem WHERE l_quantity > -3.5",
	"SELECT l_quantity FROM lineitem WHERE l_quantity > -4",
	"SELECT l_quantity FROM lineitem WHERE -3 < l_quantity",
	"SELECT l_quantity FROM lineitem WHERE 9 >= l_quantity",
	"SELECT l_quantity FROM lineitem WHERE l_quantity = -l_tax",
	// UPDATE TOP(k).
	"UPDATE TOP(5) lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = 3",
	"UPDATE TOP(12) lineitem SET l_quantity = l_quantity + 9 WHERE l_orderkey = 8",
	"UPDATE TOP(0.5) lineitem SET l_quantity = l_quantity + 2 WHERE l_orderkey = -8",
	// BETWEEN, <>, !=, LIKE, IS NULL, IN.
	"SELECT o_totalprice FROM orders WHERE o_orderdate BETWEEN 10 AND 20",
	"SELECT o_totalprice FROM orders WHERE o_orderdate BETWEEN -1 AND 2.5",
	"SELECT o_totalprice FROM orders WHERE o_orderdate NOT BETWEEN 1 AND 2",
	"SELECT o_totalprice FROM orders WHERE o_orderdate BETWEEN 'a' AND 7",
	"SELECT o_totalprice FROM orders WHERE o_orderstatus <> 'F'",
	"SELECT o_totalprice FROM orders WHERE o_orderstatus != 'O'",
	"SELECT o_totalprice FROM orders WHERE o_orderkey <> 7",
	"SELECT o_totalprice FROM orders WHERE o_orderkey <> -8",
	"SELECT p_name FROM part WHERE p_name LIKE '%green%'",
	"SELECT p_name FROM part WHERE p_name LIKE 'x%'",
	"SELECT p_name FROM part WHERE p_name NOT LIKE 'y%'",
	"SELECT p_name FROM part WHERE p_name LIKE 5",
	"SELECT p_name FROM part WHERE p_name LIKE NULL",
	"SELECT p_name FROM part WHERE p_name IS NULL",
	"SELECT p_name FROM part WHERE p_name IS NOT NULL AND p_size = 3",
	"SELECT p_name FROM part WHERE p_name IS NOT NULL AND p_size = 4",
	"SELECT p_name FROM part WHERE p_size IN (1, 2, 3)",
	"SELECT p_name FROM part WHERE p_size IN (4, -5, 6)",
	"SELECT p_name FROM part WHERE p_size NOT IN (7)",
	"SELECT p_name FROM part WHERE p_brand IN ('a', 'b')",
	"SELECT p_name FROM part WHERE p_brand IN ('c', 'dd')",
	// JOIN … ON versus comma joins.
	"SELECT o_orderdate, l_quantity FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey WHERE l_quantity < 5",
	"SELECT o_orderdate, l_quantity FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey WHERE l_quantity < 6",
	"SELECT o_orderdate, l_quantity FROM orders o INNER JOIN lineitem l ON o.o_orderkey = l.l_orderkey WHERE l_quantity < 9",
	"SELECT o_orderdate, l_quantity FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND l_quantity < 5",
	"SELECT o_orderdate, l_quantity FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND l_quantity < 2",
	// String literals with doubled quotes.
	"SELECT p_name FROM part WHERE p_brand = 'it''s'",
	"SELECT p_name FROM part WHERE p_brand = ''''",
	"SELECT p_name FROM part WHERE p_brand = ''",
	"SELECT p_name FROM part WHERE p_brand = 'BRAND#13'",
	// Keyword case and whitespace variants.
	"select p_name from part where p_size = 4",
	"SeLeCt p_name FrOm part WhErE p_size = 44",
	"SELECT   p_name\n\tFROM part\r\n WHERE p_size=4;",
	"SELECT p_name FROM part WHERE p_size = 4;",
	"SELECT p_name FROM part WHERE p_size = 4",
	// Literals outside any predicate: select-list arithmetic, SET, VALUES.
	"SELECT l_extendedprice * (1 - l_discount), 2 + 3 FROM lineitem WHERE l_orderkey = 1",
	"SELECT l_extendedprice * (7 - l_discount), 5 + 6 FROM lineitem WHERE l_orderkey = 2",
	"SELECT SUM(l_extendedprice * (1 - l_discount)) FROM lineitem GROUP BY l_returnflag HAVING SUM(l_quantity) > 300",
	"SELECT SUM(l_extendedprice * (2 - l_discount)) FROM lineitem GROUP BY l_returnflag HAVING SUM(l_quantity) > 301",
	"UPDATE lineitem SET l_quantity = 5, l_comment = 'x' WHERE l_orderkey = 1",
	"UPDATE lineitem SET l_quantity = -6, l_comment = 'yy' WHERE l_orderkey = 2",
	"INSERT INTO orders (o_orderkey, o_orderstatus, o_totalprice) VALUES (1, 'F', 2.5)",
	"INSERT INTO orders (o_orderkey, o_orderstatus, o_totalprice) VALUES (-2, 'O', 3)",
	"DELETE FROM orders WHERE o_orderdate < 100 AND o_orderstatus = 'F'",
	"DELETE FROM orders WHERE o_orderdate < 200 AND o_orderstatus = 'O'",
	// Disjunctions, grouping, ordering, parenthesised scalars.
	"SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate >= 5 OR o_orderkey = 3 GROUP BY o_orderpriority HAVING COUNT(*) > 2 ORDER BY o_orderpriority DESC",
	"SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate >= 6 OR o_orderkey = 4 GROUP BY o_orderpriority HAVING COUNT(*) > 1 ORDER BY o_orderpriority DESC",
	"SELECT o_totalprice FROM orders WHERE (o_orderdate + 1) * 2 > 3",
	"SELECT o_totalprice FROM orders WHERE (o_orderdate + 4) * 5 > 6",
	"SELECT o_totalprice FROM orders WHERE (o_orderdate + 1) > 3",
	"SELECT o_totalprice FROM orders WHERE (o_orderkey = 1 OR o_orderkey = 2) AND o_orderdate = 3",
	"SELECT o_totalprice FROM orders WHERE (o_orderkey = 4 OR o_orderkey = 5) AND o_orderdate = 6",
	"SELECT o_totalprice FROM orders WHERE NOT o_orderkey = 9",
	"SELECT o_totalprice FROM orders WHERE o_orderkey = NULL",
	"SELECT o_totalprice FROM orders WHERE o_orderkey = -'x'",
	"SELECT o_totalprice FROM orders WHERE o_orderdate > 0.125",
	"SELECT o_totalprice FROM orders WHERE o_orderdate <= 100000000000000000000000000000",
}

// parseEach parses every statement on its own — each is the first of its
// signature, so each takes the full path — and assembles the workload
// Parse must reproduce.
func parseEach(t *testing.T, cat *catalog.Catalog, sqls []string) *Workload {
	t.Helper()
	queries := make([]*Query, len(sqls))
	var order []sqlparse.TemplateID
	templateSQL := make(map[sqlparse.TemplateID]string)
	for i, src := range sqls {
		w, err := Parse(cat, []string{src})
		if err != nil {
			t.Fatalf("statement %d %q: %v", i, src, err)
		}
		q := w.Queries[0]
		q.ID = i
		queries[i] = q
		if _, ok := templateSQL[q.Template]; !ok {
			templateSQL[q.Template] = w.Templates()[0].SQL
			order = append(order, q.Template)
		}
	}
	ref := New(queries)
	for _, tid := range order {
		ref.templates[tid].SQL = templateSQL[tid]
	}
	return ref
}

// assertSharedMatchesFull parses sqls as one workload and checks it
// against the statement-by-statement full path.
func assertSharedMatchesFull(t *testing.T, name string, cat *catalog.Catalog, sqls []string) {
	t.Helper()
	got, err := Parse(cat, sqls)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := parseEach(t, cat, sqls)
	owner := make(map[*sqlparse.Analysis]int, len(sqls))
	for i := range sqls {
		if !reflect.DeepEqual(got.Queries[i], want.Queries[i]) {
			t.Fatalf("%s: statement %d %q:\nshared %+v\nfull   %+v",
				name, i, sqls[i], *got.Queries[i].Analysis, *want.Queries[i].Analysis)
		}
		if j, dup := owner[got.Queries[i].Analysis]; dup {
			t.Fatalf("%s: statements %d and %d share one *Analysis", name, j, i)
		}
		owner[got.Queries[i].Analysis] = i
	}
	if !reflect.DeepEqual(got.Templates(), want.Templates()) {
		t.Fatalf("%s: Templates() differ from the full path's", name)
	}
}

func sqlOf(w *Workload) []string {
	out := make([]string, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = q.SQL
	}
	return out
}

// TestParseSharedMatchesFull pins template-shaped ingest: every statement
// parsed as part of a workload (most of them copying and patching their
// signature's skeleton) must analyse exactly as if parsed alone, with the
// same template partition, and own its analysis.
func TestParseSharedMatchesFull(t *testing.T) {
	assertSharedMatchesFull(t, "corpus", tpcdCat, sharedCorpus)

	if testing.Short() {
		t.Skip("generated workloads skipped in -short mode")
	}
	big := catalog.TPCD(1)
	for _, seed := range []uint64{1000, 1001, 1002} {
		w, err := GenTPCD(big, 13000, seed)
		if err != nil {
			t.Fatal(err)
		}
		assertSharedMatchesFull(t, "tpcd seed "+strconv.FormatUint(seed, 10), big, sqlOf(w))
		w, err = GenCRM(crmCat, 6000, seed)
		if err != nil {
			t.Fatal(err)
		}
		assertSharedMatchesFull(t, "crm seed "+strconv.FormatUint(seed, 10), crmCat, sqlOf(w))
	}
	windows, err := GenTPCDDrift(tpcdCat, DriftOptions{Windows: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, dw := range windows {
		assertSharedMatchesFull(t, "drift window "+strconv.Itoa(i), tpcdCat, sqlOf(dw.W))
	}
}

// TestParseSharedRejectsLikeFull checks that a statement the parser
// rejects is rejected even when its signature is already known: a number
// too large for float64, in a predicate or outside any.
func TestParseSharedRejectsLikeFull(t *testing.T) {
	huge := "1" + strings.Repeat("0", 400)
	for _, pair := range [][2]string{
		{"SELECT p_name FROM part WHERE p_size = 4", "SELECT p_name FROM part WHERE p_size = " + huge},
		{"SELECT p_size + 1 FROM part", "SELECT p_size + " + huge + " FROM part"},
	} {
		_, err := Parse(tpcdCat, pair[:])
		_, want := Parse(tpcdCat, pair[1:])
		if err == nil || want == nil {
			t.Fatalf("%q: shared err %v, full err %v; both must fail", pair[1], err, want)
		}
		if errors.Unwrap(err).Error() != errors.Unwrap(want).Error() {
			t.Errorf("%q: shared error %q, full error %q", pair[1], err, want)
		}
	}
}

// sibling rewrites src's literals so that, unless a unary minus was added
// or removed, it has src's signature: digits rotate, string contents are
// replaced, and every other number gains or loses a leading minus.
func sibling(src string) string {
	_, lits, err := sqlparse.AppendSignature(nil, nil, src)
	if err != nil {
		return src
	}
	var b strings.Builder
	prev := 0
	for j, t := range lits {
		start := t.Pos
		if t.Kind == sqlparse.TokNumber && j%2 == 1 {
			if k := strings.LastIndexFunc(src[prev:start], func(r rune) bool { return r != ' ' }); k >= 0 && src[prev+k] == '-' {
				start = prev + k // drop the minus
			} else {
				b.WriteString(src[prev:start])
				prev = start
				b.WriteByte('-')
			}
		}
		b.WriteString(src[prev:start])
		switch t.Kind {
		case sqlparse.TokNumber:
			for _, c := range []byte(t.Text) {
				if c >= '0' && c <= '9' {
					c = '0' + (c-'0'+3)%10
				}
				b.WriteByte(c)
			}
		case sqlparse.TokString:
			b.WriteString("'s" + strconv.Itoa(j) + "'")
		}
		prev = t.Pos + len(t.Text)
	}
	b.WriteString(src[prev:])
	return b.String()
}

// FuzzParseShared parses a statement and a literal-rewritten sibling as one
// workload: both analyses must equal their full-path analyses, or the
// workload must be rejected with the first failing statement's error.
func FuzzParseShared(f *testing.F) {
	for _, s := range sharedCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		pair := []string{src, sibling(src)}
		got, err := Parse(tpcdCat, pair)
		var want []*Query
		var wantErr error
		for _, s := range pair {
			w, err := Parse(tpcdCat, []string{s})
			if err != nil {
				wantErr = errors.Unwrap(err)
				break
			}
			want = append(want, w.Queries[0])
		}
		if wantErr != nil {
			if err == nil || errors.Unwrap(err).Error() != wantErr.Error() {
				t.Fatalf("%q: shared error %v, full error %v", pair, err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q: shared parse failed where the full path succeeds: %v", pair, err)
		}
		for i, q := range want {
			q.ID = i
			if !reflect.DeepEqual(got.Queries[i], q) {
				t.Fatalf("%q: statement %d:\nshared %+v\nfull   %+v", pair[i], i, *got.Queries[i].Analysis, *q.Analysis)
			}
		}
		if got.Queries[0].Analysis == got.Queries[1].Analysis {
			t.Fatalf("%q: both statements share one *Analysis", pair)
		}
	})
}

// TestParseSharedAllocs gates the cost of a statement whose signature is
// already known: its Query, its Analysis and its Preds, nothing more.
// Template bookkeeping (New) is measured apart and subtracted, as is the
// signature's first statement.
func TestParseSharedAllocs(t *testing.T) {
	const hits = 400
	sqls := make([]string, 1+hits)
	for i := range sqls {
		sqls[i] = "SELECT l_quantity, l_extendedprice * (1 - l_discount) FROM lineitem WHERE l_partkey = " +
			strconv.Itoa(i) + " AND l_shipdate BETWEEN " + strconv.Itoa(i%50) + " AND " + strconv.Itoa(100+i) +
			" AND l_shipmode = 'MODE" + strconv.Itoa(i%7) + "'"
	}
	cost := func(sqls []string) float64 {
		w, err := Parse(tpcdCat, sqls)
		if err != nil {
			t.Fatal(err)
		}
		parse := testing.AllocsPerRun(5, func() {
			if _, err := Parse(tpcdCat, sqls); err != nil {
				t.Fatal(err)
			}
		})
		build := testing.AllocsPerRun(5, func() { New(w.Queries) })
		return parse - build
	}
	first, all := cost(sqls[:1]), cost(sqls)
	if perHit := (all - first) / hits; perHit > 3 {
		t.Errorf("a statement of a known signature costs %.2f allocations, want at most 3 (Query, Analysis, Preds)", perHit)
	}
}
