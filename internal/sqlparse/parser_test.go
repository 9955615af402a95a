package sqlparse

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParse(t, "SELECT a, b FROM t WHERE a = 5")
	sel, ok := s.(*SelectStmt)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if len(sel.Items) != 2 || len(sel.From) != 1 || sel.Where == nil {
		t.Errorf("unexpected shape: %+v", sel)
	}
	if got := SQL(s); got != "SELECT a, b FROM t WHERE (a = 5)" {
		t.Errorf("SQL = %q", got)
	}
}

func TestParseSelectStar(t *testing.T) {
	s := mustParse(t, "select * from t")
	sel := s.(*SelectStmt)
	if !sel.Items[0].Star {
		t.Error("expected star item")
	}
}

func TestParseDistinctAggregatesGroupOrder(t *testing.T) {
	src := "SELECT DISTINCT c1, SUM(c2 * (1 - c3)) AS rev, COUNT(*) FROM big " +
		"WHERE c4 BETWEEN 3 AND 9 GROUP BY c1 HAVING SUM(c2) > 100 " +
		"ORDER BY c1 DESC, c2"
	s := mustParse(t, src)
	sel := s.(*SelectStmt)
	if !sel.Distinct {
		t.Error("DISTINCT lost")
	}
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Error("GROUP BY / HAVING lost")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("ORDER BY wrong: %+v", sel.OrderBy)
	}
	fc, ok := sel.Items[1].Expr.(*FuncCall)
	if !ok || fc.Name != "SUM" {
		t.Errorf("SUM not parsed: %+v", sel.Items[1].Expr)
	}
	if sel.Items[1].Alias != "rev" {
		t.Errorf("alias = %q", sel.Items[1].Alias)
	}
	cnt := sel.Items[2].Expr.(*FuncCall)
	if !cnt.Star || cnt.Name != "COUNT" {
		t.Error("COUNT(*) not parsed")
	}
}

func TestParseJoins(t *testing.T) {
	// Implicit join in WHERE.
	s := mustParse(t, "SELECT o.o_id FROM orders o, lineitem l WHERE o.o_id = l.l_oid AND l.l_qty > 10")
	sel := s.(*SelectStmt)
	if len(sel.From) != 2 {
		t.Fatalf("FROM count = %d", len(sel.From))
	}
	if sel.From[0].Binding() != "o" || sel.From[1].Binding() != "l" {
		t.Errorf("bindings wrong: %+v", sel.From)
	}

	// Explicit JOIN ... ON.
	s2 := mustParse(t, "SELECT o.o_id FROM orders o JOIN lineitem l ON o.o_id = l.l_oid WHERE l.l_qty > 10")
	sel2 := s2.(*SelectStmt)
	if len(sel2.From) != 2 || len(sel2.JoinOn) != 1 {
		t.Fatalf("explicit join not parsed: from=%d on=%d", len(sel2.From), len(sel2.JoinOn))
	}

	// Both forms share a template.
	t1, id1 := Template(s)
	t2, id2 := Template(s2)
	if t1 != t2 || id1 != id2 {
		t.Errorf("join forms should share a template:\n%s\n%s", t1, t2)
	}
}

func TestParseInNotLike(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT LIKE 'x%' AND NOT (c = 2 OR d = 3)")
	sel := s.(*SelectStmt)
	if sel.Where == nil {
		t.Fatal("WHERE lost")
	}
	sql := SQL(s)
	for _, want := range []string{"IN (1, 2, 3)", "NOT (", "LIKE 'x%'"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL %q missing %q", sql, want)
		}
	}
}

func TestParseIsNull(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE b IS NULL AND c IS NOT NULL")
	sql := SQL(s)
	if !strings.Contains(sql, "b IS NULL") || !strings.Contains(sql, "c IS NOT NULL") {
		t.Errorf("SQL = %q", sql)
	}
}

func TestParseBetweenStrings(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE d BETWEEN '1994-01-01' AND '1995-01-01'")
	if !strings.Contains(SQL(s), "BETWEEN '1994-01-01' AND '1995-01-01'") {
		t.Errorf("SQL = %q", SQL(s))
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a > -5.5")
	sel := s.(*SelectStmt)
	cmp := sel.Where.(*BinaryExpr)
	lit, ok := cmp.Right.(*Literal)
	if !ok || lit.Num != -5.5 {
		t.Errorf("negative literal not folded: %+v", cmp.Right)
	}
}

func TestParseInsert(t *testing.T) {
	s := mustParse(t, "INSERT INTO t (a, b, c) VALUES (1, 'x', 2.5)")
	ins := s.(*InsertStmt)
	if ins.Table != "t" || len(ins.Columns) != 3 || len(ins.Values) != 3 {
		t.Errorf("insert shape: %+v", ins)
	}
}

func TestParseInsertCountMismatch(t *testing.T) {
	if _, err := Parse("INSERT INTO t (a, b) VALUES (1)"); err == nil {
		t.Error("expected column/value mismatch error")
	}
}

func TestParseUpdate(t *testing.T) {
	s := mustParse(t, "UPDATE r SET a1 = a3, a2 = 0 WHERE a2 < 4")
	up := s.(*UpdateStmt)
	if up.Table != "r" || len(up.Set) != 2 || up.Where == nil || up.Top != nil {
		t.Errorf("update shape: %+v", up)
	}
}

func TestParseUpdateTop(t *testing.T) {
	// The paper's Section 6.1 split form.
	s := mustParse(t, "UPDATE TOP(120) r SET a1 = 0")
	up := s.(*UpdateStmt)
	if up.Top == nil || up.Top.Num != 120 {
		t.Errorf("TOP not parsed: %+v", up.Top)
	}
	if got := SQL(s); got != "UPDATE TOP(120) r SET a1 = 0" {
		t.Errorf("SQL = %q", got)
	}
}

func TestParseDelete(t *testing.T) {
	s := mustParse(t, "DELETE FROM t WHERE a = 3")
	del := s.(*DeleteStmt)
	if del.Table != "t" || del.Where == nil {
		t.Errorf("delete shape: %+v", del)
	}
	s2 := mustParse(t, "DELETE FROM t")
	if s2.(*DeleteStmt).Where != nil {
		t.Error("bare delete should have nil Where")
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	mustParse(t, "SELECT a FROM t;")
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEKT a FROM t",
		"SELECT FROM t",
		"SELECT a WHERE x = 1",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"INSERT t VALUES (1)",
		"UPDATE SET a = 1",
		"DELETE t",
		"SELECT a FROM t WHERE a = 'unterminated",
		"SELECT a FROM t extra garbage ~",
		"SELECT a FROM t WHERE a ! b",
		"SELECT a FROM t WHERE a NOT 5",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSQLRoundTrip(t *testing.T) {
	// Rendering a parsed statement and reparsing it must be a fixpoint.
	srcs := []string{
		"SELECT a, b FROM t WHERE a = 5 AND b < 3.5",
		"SELECT DISTINCT x FROM t1, t2 WHERE t1.a = t2.b ORDER BY x DESC",
		"SELECT SUM(a * b) FROM t GROUP BY c HAVING COUNT(*) > 2",
		"INSERT INTO t (a, b) VALUES (1, 'hi')",
		"UPDATE TOP(5) t SET a = 1 WHERE b IN (1, 2)",
		"DELETE FROM t WHERE a BETWEEN 1 AND 2",
		"SELECT a FROM t WHERE s LIKE '%x%' OR v <> 7",
	}
	for _, src := range srcs {
		s1 := mustParse(t, src)
		r1 := SQL(s1)
		s2 := mustParse(t, r1)
		r2 := SQL(s2)
		if r1 != r2 {
			t.Errorf("not a fixpoint:\n%s\n%s", r1, r2)
		}
		if TemplateSQL(s1) != TemplateSQL(s2) {
			t.Errorf("template differs after roundtrip for %q", src)
		}
	}
}

func TestTemplateEquality(t *testing.T) {
	a := mustParse(t, "SELECT x FROM t WHERE a = 5 AND b BETWEEN 1 AND 2")
	b := mustParse(t, "SELECT x FROM t WHERE a = 99 AND b BETWEEN 7 AND 814")
	c := mustParse(t, "SELECT x FROM t WHERE a = 5 AND b < 2")
	ta, ia := Template(a)
	tb, ib := Template(b)
	tc, ic := Template(c)
	if ta != tb || ia != ib {
		t.Errorf("same-template queries differ:\n%s\n%s", ta, tb)
	}
	if ta == tc || ia == ic {
		t.Errorf("different-template queries collide:\n%s\n%s", ta, tc)
	}
}

func TestTemplateStringsVsNumbers(t *testing.T) {
	a := mustParse(t, "SELECT x FROM t WHERE s = 'abc'")
	b := mustParse(t, "SELECT x FROM t WHERE s = 'zzz'")
	_, ia := Template(a)
	_, ib := Template(b)
	if ia != ib {
		t.Error("string literals should normalize to the same template")
	}
}

func TestParameterizedTemplateFillRoundtrip(t *testing.T) {
	// Property: for random numeric parameter vectors, rendering the same
	// template with different bindings yields equal TemplateIDs.
	f := func(a, b float64, c uint8) bool {
		q1 := mustParseQuick("SELECT x FROM t WHERE p = " + fmtF(a) + " AND q < " + fmtF(b) + " AND r IN (" + fmtF(float64(c)) + ", 2)")
		q2 := mustParseQuick("SELECT x FROM t WHERE p = 1 AND q < 2 AND r IN (3, 4)")
		if q1 == nil || q2 == nil {
			return true // skip unparseable float renderings (NaN etc.)
		}
		_, i1 := Template(q1)
		_, i2 := Template(q2)
		return i1 == i2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustParseQuick(src string) Statement {
	s, err := Parse(src)
	if err != nil {
		return nil
	}
	return s
}

// fmtF renders v as a plain decimal inside the lexer's number grammar
// (no sign, no scientific notation).
func fmtF(v float64) string {
	if v < 0 {
		v = -v
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v > 1e9 {
		v = 1e9
	}
	s := strconv.FormatFloat(v, 'f', 4, 64)
	s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	if s == "" {
		return "0"
	}
	return s
}
