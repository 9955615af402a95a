package sqlparse

import (
	"strings"
	"testing"
)

// TestKeywordRecognition checks that keywords are recognized in any case
// and come back upper-cased, that identifiers keep their spelling, and
// that lexing either allocates nothing.
func TestKeywordRecognition(t *testing.T) {
	for _, kw := range keywordList {
		if len(kw) > maxKeywordLen {
			t.Fatalf("keyword %q is longer than maxKeywordLen %d", kw, maxKeywordLen)
		}
		for _, spelling := range []string{kw, strings.ToLower(kw), strings.ToLower(kw[:1]) + kw[1:]} {
			toks, err := Tokenize(spelling)
			if err != nil || len(toks) != 1 || toks[0].Kind != TokKeyword || toks[0].Text != kw {
				t.Errorf("Tokenize(%q) = %+v, %v; want keyword %q", spelling, toks, err, kw)
			}
		}
	}
	for _, id := range []string{"selects", "l_quantity", "Orders", "distinctly", "x"} {
		toks, err := Tokenize(id)
		if err != nil || len(toks) != 1 || toks[0].Kind != TokIdent || toks[0].Text != id {
			t.Errorf("Tokenize(%q) = %+v, %v; want identifier %q", id, toks, err, id)
		}
	}
	const src = "select distinct l_quantity from lineitem where l_partkey between 1 and 2"
	allocs := testing.AllocsPerRun(20, func() {
		l := Lexer{src: src}
		for {
			tok, err := l.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tok.Kind == TokEOF {
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("lexing lower-case keywords and identifiers allocates %.0f times, want 0", allocs)
	}
}

// TestAppendSignature checks that the signature ignores literal text,
// keyword case and whitespace, and nothing else.
func TestAppendSignature(t *testing.T) {
	sig := func(src string) string {
		s, _, err := AppendSignature(nil, nil, src)
		if err != nil {
			t.Fatalf("AppendSignature(%q): %v", src, err)
		}
		return string(s)
	}
	base := sig("SELECT a FROM t WHERE b = 5 AND c = 'x'")
	for _, same := range []string{
		"select a from t where b = 17 and c = 'it''s'",
		"SELECT a\n\tFROM t WHERE b=5.25 AND c=''",
	} {
		if sig(same) != base {
			t.Errorf("%q should share the signature", same)
		}
	}
	for _, diff := range []string{
		"SELECT a FROM t WHERE b = -5 AND c = 'x'",
		"SELECT a FROM t WHERE b = 'x' AND c = 5",
		"SELECT A FROM t WHERE b = 5 AND c = 'x'",
		"SELECT a FROM t WHERE b = 5 AND c = 'x';",
		"SELECT a FROM t WHERE b = c5 AND c = 'x'",
	} {
		if sig(diff) == base {
			t.Errorf("%q should not share the signature", diff)
		}
	}
	_, lits, err := AppendSignature(nil, nil, "UPDATE TOP(3) t SET a = 'v' WHERE b < -2.5")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, l := range lits {
		texts = append(texts, l.Text)
	}
	if got := strings.Join(texts, " "); got != "3 'v' 2.5" {
		t.Errorf("literals = %q, want %q", got, "3 'v' 2.5")
	}
	if _, _, err := AppendSignature(nil, nil, "SELECT 'open"); err == nil {
		t.Error("an unterminated string must fail to lex")
	}
}
