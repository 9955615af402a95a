package sqlparse

import (
	"strings"
	"testing"
)

func TestTokenKindStrings(t *testing.T) {
	kinds := map[TokenKind]string{
		TokEOF: "EOF", TokIdent: "identifier", TokNumber: "number",
		TokString: "string", TokComma: ",", TokDot: ".", TokLParen: "(",
		TokRParen: ")", TokStar: "*", TokPlus: "+", TokMinus: "-",
		TokSlash: "/", TokEq: "=", TokNeq: "<>", TokLt: "<", TokLe: "<=",
		TokGt: ">", TokGe: ">=", TokSemicolon: ";", TokKeyword: "keyword",
		TokPlaceholder: "?",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("TokenKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if !strings.Contains(TokenKind(99).String(), "99") {
		t.Error("unknown TokenKind should render its value")
	}
}

func TestLexerOperatorsAndEscapes(t *testing.T) {
	toks, err := Tokenize("a != 1 ; b / 2 ? 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []TokenKind{TokIdent, TokNeq, TokNumber, TokSemicolon,
		TokIdent, TokSlash, TokNumber, TokPlaceholder, TokString}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[8].Text != "'it''s'" {
		t.Errorf("escaped string text = %q", toks[8].Text)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"a ! b", "'unterminated", "a @ b"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should fail", src)
		}
	}
}

func TestRenderAllExprForms(t *testing.T) {
	// Exercise every render branch through a statement using all forms.
	src := "SELECT DISTINCT a AS x, COUNT(DISTINCT b), SUM(c) FROM t " +
		"WHERE (a + 1) * 2 >= 3 AND b IS NOT NULL AND c IS NULL AND " +
		"NOT (d IN (1, 2)) AND e NOT BETWEEN 1 AND 5 AND f LIKE 'p%' " +
		"ORDER BY a DESC, b"
	s := mustParse(t, src)
	rendered := SQL(s)
	for _, want := range []string{
		"DISTINCT", "AS x", "COUNT(DISTINCT b)", "SUM(c)", "IS NOT NULL",
		"IS NULL", "NOT (", "IN (1, 2)", "BETWEEN 1 AND 5", "LIKE 'p%'",
		"ORDER BY a DESC, b",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered SQL missing %q:\n%s", want, rendered)
		}
	}
	tmpl := TemplateSQL(s)
	if strings.Contains(tmpl, "1, 2") || !strings.Contains(tmpl, "?") {
		t.Errorf("template did not normalize literals: %s", tmpl)
	}
	// NULL survives templating.
	if !strings.Contains(tmpl, "IS NULL") {
		t.Errorf("template lost IS NULL: %s", tmpl)
	}
}

func TestColumnRefString(t *testing.T) {
	if (&ColumnRef{Table: "t", Column: "c"}).String() != "t.c" {
		t.Error("qualified String wrong")
	}
	if (&ColumnRef{Column: "c"}).String() != "c" {
		t.Error("bare String wrong")
	}
}

func TestParseUpdateQualifiedColumn(t *testing.T) {
	s := mustParse(t, "UPDATE r SET r.a1 = 5 WHERE r.a2 = 1")
	up := s.(*UpdateStmt)
	if up.Set[0].Column.Table != "r" || up.Set[0].Column.Column != "a1" {
		t.Errorf("qualified SET column: %+v", up.Set[0].Column)
	}
	if !strings.Contains(SQL(s), "r.a1 = 5") {
		t.Errorf("SQL = %q", SQL(s))
	}
}

func TestParseUpdateErrors(t *testing.T) {
	bad := []string{
		"UPDATE TOP(x) r SET a = 1",
		"UPDATE TOP r SET a = 1",
		"UPDATE r SET a 1",
		"UPDATE r SET = 1",
		"UPDATE r SET a = 1 WHERE",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestFlipOpAllCases(t *testing.T) {
	// literal-op-column comparisons exercise every flip branch.
	cases := map[string]string{
		"SELECT a FROM t WHERE 5 < a":  "(a > 5)",
		"SELECT a FROM t WHERE 5 <= a": "(a >= 5)",
		"SELECT a FROM t WHERE 5 > a":  "(a < 5)",
		"SELECT a FROM t WHERE 5 >= a": "(a <= 5)",
		"SELECT a FROM t WHERE 5 = a":  "(a = 5)",
	}
	for src, want := range cases {
		s := mustParse(t, src)
		a, err := Analyze(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Preds) != 1 {
			t.Fatalf("%s: preds = %+v", src, a.Preds)
		}
		// Verify the normalized predicate via the analysis kind/endpoints.
		_ = want
		p := a.Preds[0]
		switch src[len(src)-4] {
		case '<': // "5 < a" or "5 <= a" → lower bound
		}
		switch {
		case strings.Contains(src, "5 < a"):
			if !p.HasLo || p.Lo != 5 || p.HasHi {
				t.Errorf("%s: %+v", src, p)
			}
		case strings.Contains(src, "5 <= a"):
			if !p.HasLo || p.Lo != 5 {
				t.Errorf("%s: %+v", src, p)
			}
		case strings.Contains(src, "5 > a"):
			if !p.HasHi || p.Hi != 5 || p.HasLo {
				t.Errorf("%s: %+v", src, p)
			}
		case strings.Contains(src, "5 >= a"):
			if !p.HasHi || p.Hi != 5 {
				t.Errorf("%s: %+v", src, p)
			}
		case strings.Contains(src, "5 = a"):
			if p.Kind != PredEq || p.EqValue.Num != 5 {
				t.Errorf("%s: %+v", src, p)
			}
		}
	}
}

func TestAnalyzeScalarForms(t *testing.T) {
	// Arithmetic and aggregates in every clause exercise collectScalar.
	a := analyzeSrc(t, "SELECT l_extendedprice * (1 - l_discount) + l_tax FROM lineitem "+
		"WHERE l_quantity + 1 < l_partkey GROUP BY l_shipmode "+
		"HAVING SUM(l_quantity) > 5 ORDER BY l_shipdate")
	if !a.HasAggregate {
		t.Error("HAVING aggregate lost")
	}
	// col-op-col on the same table: referenced, not a join.
	if len(a.Joins) != 0 {
		t.Errorf("same-table comparison must not create a join: %+v", a.Joins)
	}
	wantCols := []string{"l_discount", "l_extendedprice", "l_partkey",
		"l_quantity", "l_shipdate", "l_shipmode", "l_tax"}
	if len(a.Referenced) != len(wantCols) {
		t.Fatalf("referenced = %+v", a.Referenced)
	}
	for i, tc := range a.Referenced {
		if tc.Column != wantCols[i] {
			t.Errorf("referenced[%d] = %s, want %s", i, tc.Column, wantCols[i])
		}
	}
}

func TestAnalyzeBetweenNonLiteral(t *testing.T) {
	// BETWEEN with column endpoints: collected as references, no range.
	a := analyzeSrc(t, "SELECT l_tax FROM lineitem WHERE l_shipdate BETWEEN l_commitdate AND l_receiptdate")
	for _, p := range a.Preds {
		if p.Kind == PredRange && (p.HasLo || p.HasHi) {
			t.Errorf("column-bounded BETWEEN should have no numeric endpoints: %+v", p)
		}
	}
}

func TestAnalyzeInNonColumn(t *testing.T) {
	// IN with a non-column operand: references only.
	a := analyzeSrc(t, "SELECT l_tax FROM lineitem WHERE l_quantity + 1 IN (1, 2)")
	for _, p := range a.Preds {
		if p.Kind == PredIn {
			t.Errorf("non-column IN must not be sargable: %+v", p)
		}
	}
}

func TestParenthesizedBooleanGroup(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3")
	a, err := Analyze(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.HasDisjunction {
		t.Error("OR inside parens lost")
	}
	conj := 0
	for _, p := range a.Preds {
		if !p.InDisjunction {
			conj++
		}
	}
	if conj != 1 {
		t.Errorf("want exactly one conjunctive predicate, got %d", conj)
	}
}

func TestParenthesizedScalarComparison(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE (a + b) > 3")
	if !strings.Contains(SQL(s), "> 3") {
		t.Errorf("SQL = %q", SQL(s))
	}
}

func TestSplitScript(t *testing.T) {
	script := `-- a header comment
SELECT a
  FROM t
 WHERE s = 'semi;colon';

-- another comment
INSERT INTO t (a) VALUES (1);
UPDATE t SET a = 'it''s; fine' WHERE b = 2
`
	stmts := SplitScript(script)
	if len(stmts) != 3 {
		t.Fatalf("got %d statements: %q", len(stmts), stmts)
	}
	if !strings.Contains(stmts[0], "'semi;colon'") {
		t.Errorf("string literal split: %q", stmts[0])
	}
	if !strings.HasPrefix(stmts[1], "INSERT") {
		t.Errorf("statement 1 = %q", stmts[1])
	}
	if !strings.Contains(stmts[2], "'it''s; fine'") {
		t.Errorf("escaped quote handling: %q", stmts[2])
	}
	// Every split statement parses.
	for _, s := range stmts {
		if _, err := Parse(s); err != nil {
			t.Errorf("split statement does not parse: %q: %v", s, err)
		}
	}
	if got := SplitScript("  \n-- only a comment\n  "); len(got) != 0 {
		t.Errorf("comment-only script produced %q", got)
	}
	if got := SplitScript("SELECT a FROM t"); len(got) != 1 {
		t.Errorf("unterminated final statement lost: %q", got)
	}
}
