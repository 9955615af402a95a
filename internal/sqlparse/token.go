// Package sqlparse implements a lexer and recursive-descent parser for the
// SQL dialect produced by the workload generators: single-block
// SELECT-FROM-WHERE-GROUP BY-HAVING-ORDER BY queries with joins expressed in
// the FROM/WHERE clauses, plus INSERT, UPDATE (including UPDATE TOP(k)) and
// DELETE statements.
//
// The package serves two roles in the reproduction:
//
//  1. Template extraction (Section 5 of the paper): two statements share a
//     template (also called signature or skeleton) when they are identical
//     in everything but the constant bindings of their parameters. Parsing a
//     statement and rendering it with literals replaced by placeholders
//     yields a canonical template string and hash.
//  2. Statement analysis for the what-if optimizer and candidate structure
//     enumeration: referenced tables, predicate columns with operators,
//     join equalities, grouping/ordering columns and modified columns.
package sqlparse

import "fmt"

// TokenKind enumerates lexical token classes.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokComma
	TokDot
	TokLParen
	TokRParen
	TokStar
	TokPlus
	TokMinus
	TokSlash
	TokEq
	TokNeq
	TokLt
	TokLe
	TokGt
	TokGe
	TokSemicolon
	TokKeyword
	TokPlaceholder // '?' inside a template string
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokComma:
		return ","
	case TokDot:
		return "."
	case TokLParen:
		return "("
	case TokRParen:
		return ")"
	case TokStar:
		return "*"
	case TokPlus:
		return "+"
	case TokMinus:
		return "-"
	case TokSlash:
		return "/"
	case TokEq:
		return "="
	case TokNeq:
		return "<>"
	case TokLt:
		return "<"
	case TokLe:
		return "<="
	case TokGt:
		return ">"
	case TokGe:
		return ">="
	case TokSemicolon:
		return ";"
	case TokKeyword:
		return "keyword"
	case TokPlaceholder:
		return "?"
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is one lexical unit with its source position (byte offset).
type Token struct {
	Kind TokenKind
	Text string // raw text; keywords are upper-cased
	Pos  int
}

// keywordList holds the keywords recognized by the lexer; identifiers
// matching one (case-insensitively) are lexed as TokKeyword with
// upper-case Text.
var keywordList = []string{
	"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC",
	"DESC", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "AS", "DISTINCT",
	"INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "TOP", "COUNT",
	"SUM", "AVG", "MIN", "MAX", "IS", "NULL", "JOIN", "ON", "INNER",
}

// keywords maps each keyword to itself, so a lookup returns the canonical
// upper-case string without building one.
var keywords = func() map[string]string {
	m := make(map[string]string, len(keywordList))
	for _, kw := range keywordList {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword ("DISTINCT").
const maxKeywordLen = 8

// keyword returns the upper-case keyword that text spells in any case.
// It upper-cases into a stack buffer, so it allocates nothing.
func keyword(text string) (string, bool) {
	if len(text) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(text)])]
	return kw, ok
}

// Lexer turns an input string into tokens.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or an error describing the offending byte.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == ',':
		l.pos++
		return Token{TokComma, ",", start}, nil
	case c == '.':
		l.pos++
		return Token{TokDot, ".", start}, nil
	case c == '(':
		l.pos++
		return Token{TokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return Token{TokRParen, ")", start}, nil
	case c == '*':
		l.pos++
		return Token{TokStar, "*", start}, nil
	case c == '+':
		l.pos++
		return Token{TokPlus, "+", start}, nil
	case c == '-':
		l.pos++
		return Token{TokMinus, "-", start}, nil
	case c == '/':
		l.pos++
		return Token{TokSlash, "/", start}, nil
	case c == ';':
		l.pos++
		return Token{TokSemicolon, ";", start}, nil
	case c == '?':
		l.pos++
		return Token{TokPlaceholder, "?", start}, nil
	case c == '=':
		l.pos++
		return Token{TokEq, "=", start}, nil
	case c == '<':
		l.pos++
		if l.pos < len(l.src) {
			switch l.src[l.pos] {
			case '=':
				l.pos++
				return Token{TokLe, "<=", start}, nil
			case '>':
				l.pos++
				return Token{TokNeq, "<>", start}, nil
			}
		}
		return Token{TokLt, "<", start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return Token{TokGe, ">=", start}, nil
		}
		return Token{TokGt, ">", start}, nil
	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return Token{TokNeq, "<>", start}, nil
		}
		return Token{}, fmt.Errorf("sqlparse: unexpected %q at offset %d", c, start)
	case c == '\'':
		return l.lexString()
	case isDigit(c):
		return l.lexNumber()
	case isIdentStart(c):
		return l.lexIdent()
	}
	return Token{}, fmt.Errorf("sqlparse: unexpected %q at offset %d", c, start)
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}

func (l *Lexer) lexString() (Token, error) {
	start := l.pos
	l.pos++ // opening quote
	for l.pos < len(l.src) {
		if l.src[l.pos] == '\'' {
			// Doubled quote is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				l.pos += 2
				continue
			}
			l.pos++
			return Token{TokString, l.src[start:l.pos], start}, nil
		}
		l.pos++
	}
	return Token{}, fmt.Errorf("sqlparse: unterminated string at offset %d", start)
}

func (l *Lexer) lexNumber() (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' &&
		l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	return Token{TokNumber, l.src[start:l.pos], start}, nil
}

func (l *Lexer) lexIdent() (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if kw, ok := keyword(text); ok {
		return Token{TokKeyword, kw, start}, nil
	}
	return Token{TokIdent, text, start}, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

// Tokenize lexes the whole input, excluding the trailing EOF token.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return out, nil
		}
		out = append(out, t)
	}
}

// AppendSignature lexes src once, appending its exact signature to sig and
// its literal tokens (numbers and strings, in source order) to lits. The
// signature is each token's kind byte followed, for identifiers and
// keywords, by the token's text; every other kind has one spelling, and a
// kind byte (< 32) can never be mistaken for identifier text, so equal
// signatures mean equal token streams up to literal text. The parser
// branches on token kinds and non-literal text only, so statements with
// one signature parse to trees of one shape — and share a template — that
// differ only in their literal values.
func AppendSignature(sig []byte, lits []Token, src string) ([]byte, []Token, error) {
	l := Lexer{src: src}
	for {
		t, err := l.Next()
		if err != nil {
			return sig, lits, err
		}
		if t.Kind == TokEOF {
			return sig, lits, nil
		}
		sig = append(sig, byte(t.Kind))
		switch t.Kind {
		case TokIdent, TokKeyword:
			sig = append(sig, t.Text...)
		case TokNumber, TokString:
			lits = append(lits, t)
		}
	}
}
