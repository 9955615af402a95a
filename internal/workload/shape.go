package workload

import (
	"math"
	"strconv"
	"strings"

	"physdes/internal/sqlparse"
)

// A shape is what every statement with one signature shares (see
// sqlparse.AppendSignature): the template, the analysis of the
// signature's first statement as a skeleton, and for each literal the
// Analysis field it fills. Statements with one signature parse to trees
// of one shape, so their analyses differ only in those fields.
type shape struct {
	template sqlparse.TemplateID
	skeleton sqlparse.Analysis
	patches  []patch
}

// fill names the Analysis field a literal fills.
type fill uint8

const (
	// fillNone marks a number literal that fills no field. It is still
	// parsed, so a statement the parser would reject is rejected here too.
	fillNone fill = iota
	fillEqNum
	fillEqStr
	fillLo
	fillHi
	fillLike
	fillTopK
)

// patch says that literal lit fills field of Preds[pred] (or TopK). neg
// marks a number the parser negates: an odd number of unary minuses folds
// into the literal.
type patch struct {
	lit   int
	pred  int
	field fill
	neg   bool
}

// newShape records the shape of src, a statement whose full-path analysis
// a (not yet bound) has template tid; lits are src's literal tokens. It
// finds each literal's field by analysing a copy of src whose j-th literal
// is replaced by the sentinel j+1 (numbers) or '<j+1>' (strings): every
// literal-derived value in that analysis is a sentinel, and its sign shows
// the parser's negation.
func newShape(src string, lits []sqlparse.Token, a *sqlparse.Analysis, tid sqlparse.TemplateID, resolve sqlparse.Resolver) (*shape, error) {
	var b strings.Builder
	strLit := make(map[string]int) // string sentinel → literal index
	prev := 0
	for j, t := range lits {
		b.WriteString(src[prev:t.Pos])
		if t.Kind == sqlparse.TokString {
			quoted := "'" + strconv.Itoa(j+1) + "'"
			strLit[quoted] = j
			b.WriteString(quoted)
		} else {
			b.WriteString(strconv.Itoa(j + 1))
		}
		prev = t.Pos + len(t.Text)
	}
	b.WriteString(src[prev:])
	stmt, err := sqlparse.Parse(b.String())
	if err != nil {
		return nil, err
	}
	sa, err := sqlparse.Analyze(stmt, resolve)
	if err != nil {
		return nil, err
	}

	sh := &shape{template: tid, skeleton: *a}
	sh.skeleton.Preds = append([]sqlparse.ColumnPredicate(nil), a.Preds...)
	filled := make([]bool, len(lits))
	num := func(pred int, f fill, v float64) {
		j := int(math.Abs(v)) - 1
		filled[j] = true
		sh.patches = append(sh.patches, patch{lit: j, pred: pred, field: f, neg: v < 0})
	}
	str := func(pred int, f fill, quoted string) {
		sh.patches = append(sh.patches, patch{lit: strLit[quoted], pred: pred, field: f})
	}
	for i, p := range sa.Preds {
		switch {
		case (p.Kind == sqlparse.PredEq || p.Kind == sqlparse.PredNeq) && p.EqValue.Kind == sqlparse.LitNumber:
			num(i, fillEqNum, p.EqValue.Num)
		case (p.Kind == sqlparse.PredEq || p.Kind == sqlparse.PredNeq) && p.EqValue.Kind == sqlparse.LitString:
			str(i, fillEqStr, p.EqValue.Str)
		case p.Kind == sqlparse.PredLike && p.LikePattern != "":
			str(i, fillLike, p.LikePattern)
		}
		if p.HasLo {
			num(i, fillLo, p.Lo)
		}
		if p.HasHi {
			num(i, fillHi, p.Hi)
		}
	}
	if sa.TopK != 0 {
		num(-1, fillTopK, sa.TopK)
	}
	for j, t := range lits {
		if t.Kind == sqlparse.TokNumber && !filled[j] {
			sh.patches = append(sh.patches, patch{lit: j, field: fillNone})
		}
	}
	return sh, nil
}

// instantiate returns the analysis of a statement with this shape's
// signature and literal tokens lits: a copy of the skeleton sharing its
// read-only slices, with its own Preds and every literal patched in
// (parsed with strconv.ParseFloat, as the parser does). It reports false
// when a number does not parse; the caller then takes the full path,
// which rejects the statement with the parser's own error.
func (s *shape) instantiate(lits []sqlparse.Token) (*sqlparse.Analysis, bool) {
	a := new(sqlparse.Analysis)
	*a = s.skeleton
	a.Preds = append([]sqlparse.ColumnPredicate(nil), s.skeleton.Preds...)
	for _, p := range s.patches {
		text := lits[p.lit].Text
		var v float64
		if p.field != fillEqStr && p.field != fillLike {
			var err error
			if v, err = strconv.ParseFloat(text, 64); err != nil {
				return nil, false
			}
			if p.neg {
				v = -v
			}
		}
		switch p.field {
		case fillEqNum:
			a.Preds[p.pred].EqValue.Num = v
		case fillEqStr:
			a.Preds[p.pred].EqValue.Str = text
		case fillLo:
			a.Preds[p.pred].Lo = v
		case fillHi:
			a.Preds[p.pred].Hi = v
		case fillLike:
			a.Preds[p.pred].LikePattern = text
		case fillTopK:
			a.TopK = v
		}
	}
	return a, true
}
