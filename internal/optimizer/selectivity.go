package optimizer

import (
	"math"
	"strings"

	"physdes/internal/catalog"
	"physdes/internal/sqlparse"
)

// predSelectivity returns the fraction of a table's rows satisfying one
// of the statement's predicates: its Sel stamp when the statement's
// binding fits it and the optimizer's catalog (the one guard on every
// stamp), else an estimate from the column's histogram.
func (p *probe) predSelectivity(pr *sqlparse.ColumnPredicate) float64 {
	if p.b != nil {
		return pr.Sel
	}
	return estimateSelectivity(p.o.cat, pr)
}

// estimateSelectivity estimates the selectivity of p from cat's statistics.
func estimateSelectivity(cat *catalog.Catalog, p *sqlparse.ColumnPredicate) float64 {
	col, ok := cat.ColumnStats(p.Col.Table, p.Col.Column)
	if !ok {
		return defaultSelectivity(p.Kind)
	}
	h := catalog.ColumnHistogram(col)
	switch p.Kind {
	case sqlparse.PredEq:
		return clampSel(eqSelectivity(col, h, p.EqValue))
	case sqlparse.PredNeq:
		return clampSel(1 - eqSelectivity(col, h, p.EqValue))
	case sqlparse.PredRange:
		lo, hi := math.Inf(-1), math.Inf(1)
		if p.HasLo {
			lo = p.Lo
		}
		if p.HasHi {
			hi = p.Hi
		}
		if !p.HasLo && !p.HasHi {
			return defaultSelectivity(p.Kind)
		}
		return clampSel(h.RangeSelectivity(lo, hi))
	case sqlparse.PredIn:
		// IN-lists bind k values; without the individual literals handy we
		// charge k average equality selectivities (uniform assumption over
		// the drawn values, which the generators satisfy).
		d := col.Distinct
		if d < 1 {
			d = 1
		}
		return clampSel(float64(p.InCount) / float64(d))
	case sqlparse.PredLike:
		return likeSelectivity(p.LikePattern)
	case sqlparse.PredIsNull:
		return clampSel(col.NullFrac)
	}
	return defaultSelectivity(p.Kind)
}

func eqSelectivity(col catalog.Column, h *catalog.Histogram, lit sqlparse.Literal) float64 {
	switch lit.Kind {
	case sqlparse.LitNumber:
		return h.EqSelectivity(lit.Num)
	case sqlparse.LitString:
		if rank := catalog.RankOfString(lit.Str); rank > 0 {
			return h.EqSelectivity(float64(rank))
		}
		d := col.Distinct
		if d < 1 {
			d = 1
		}
		return 1 / float64(d)
	}
	if col.NullFrac > 0 {
		return col.NullFrac
	}
	return 0
}

func defaultSelectivity(k sqlparse.PredKind) float64 {
	switch k {
	case sqlparse.PredEq:
		return 0.005
	case sqlparse.PredRange:
		return 1.0 / 3.0
	case sqlparse.PredIn:
		return 0.02
	case sqlparse.PredLike:
		return 0.05
	case sqlparse.PredNeq:
		return 0.995
	case sqlparse.PredIsNull:
		return 0.01
	}
	return 0.1
}

func likeSelectivity(pattern string) float64 {
	p := strings.Trim(pattern, "'")
	if strings.HasPrefix(p, "%") {
		return 0.05 // non-sargable contains/suffix match
	}
	// Prefix match: longer literal prefixes are more selective.
	prefixLen := strings.IndexAny(p, "%_")
	if prefixLen < 0 {
		prefixLen = len(p)
	}
	sel := math.Pow(0.2, float64(min(prefixLen, 4)))
	return clampSel(sel)
}

func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// SelectivityOf returns the combined WHERE selectivity of the statement's
// (single) modified table — used by the bounds package to find, per
// template, the member statements with the largest and smallest
// selectivity (Section 6.1's UPDATE bounding).
func (o *Optimizer) SelectivityOf(a *sqlparse.Analysis) float64 {
	t := a.ModifiedTable
	if t == "" && len(a.Tables) > 0 {
		t = a.Tables[0]
	}
	s := tableIndex(a, t)
	if s < 0 {
		return 1
	}
	var buf probeBuf
	p := o.newProbe(a, nil, &buf)
	return p.slots[s].sel
}
