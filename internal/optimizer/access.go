package optimizer

import (
	"strconv"

	"physdes/internal/catalog"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// pathWobble returns a deterministic multiplicative factor keyed by the
// statement's predicate literals on the table and the access path's
// identity. It models the per-query cost variability a real optimizer
// exhibits within a query template (plan-choice discontinuities, buffer
// estimates, rounding in cardinality propagation): two statements of the
// same template with different constants get different costs even when the
// same plan shape wins. The distribution is right-skewed — most factors sit
// in [1−wobbleAmp, 1+wobbleAmp], but a small fraction of (literals, path)
// combinations land multi-× "misestimate" outliers — reproducing the highly
// skewed per-template cost populations whose single-draw samples are
// unrepresentative (the motivation for Section 6 and the fine-
// stratification failure of Figure 2).
//
// Because every candidate path cost is scaled by its own fixed factor, plan
// choice remains a minimum over a per-query-deterministic set, so adding a
// structure to a configuration still only adds candidates: the optimizer
// stays well-behaved (Section 6.1). And because the factor is independent
// of the configuration, a query evaluated under two configurations that
// pick the same path sees the same factor — preserving the cross-
// configuration cost covariance Delta Sampling exploits.
const (
	wobbleAmp = 0.15
	// wobbleTailProb is the chance of an outlier factor; wobbleTailMax the
	// largest outlier multiple.
	wobbleTailProb = 0.06
	wobbleTailMax  = 6.0
)

//physdes:zeroalloc
func (o *Optimizer) pathWobble(a *sqlparse.Analysis, table, pathID string) float64 {
	// FNV-1a, inline: the bytes hashed are exactly table, 0, pathID, then
	// per predicate on the table its column and literal text, with numbers
	// formatted as strconv.FormatFloat(v, 'g', -1, 64) would (into a stack
	// buffer that holds any shortest float64).
	var num [32]byte
	h := fnvString(fnvOffset64, table)
	h = fnvByte(h, 0)
	h = fnvString(h, pathID)
	for i := range a.Preds {
		p := &a.Preds[i]
		if p.Col.Table != table {
			continue
		}
		h = fnvString(h, p.Col.Column)
		switch p.Kind {
		case sqlparse.PredEq, sqlparse.PredNeq:
			if p.EqValue.Kind == sqlparse.LitNumber {
				h = fnvBytes(h, strconv.AppendFloat(num[:0], p.EqValue.Num, 'g', -1, 64))
			} else {
				h = fnvString(h, p.EqValue.Str)
			}
		case sqlparse.PredRange:
			h = fnvBytes(h, strconv.AppendFloat(num[:0], p.Lo, 'g', -1, 64))
			h = fnvBytes(h, strconv.AppendFloat(num[:0], p.Hi, 'g', -1, 64))
		case sqlparse.PredIn:
			h = fnvBytes(h, strconv.AppendInt(num[:0], int64(p.InCount), 10))
		case sqlparse.PredLike:
			h = fnvString(h, p.LikePattern)
		}
	}
	u := float64(h>>11) / float64(1<<53) // uniform [0,1)
	if u < wobbleTailProb {
		// Outlier: a misestimated plan costing 1.5–wobbleTailMax× more.
		t := u / wobbleTailProb
		return 1.5 + (wobbleTailMax-1.5)*t*t
	}
	// Bulk: uniform in [1−amp, 1+amp].
	t := (u - wobbleTailProb) / (1 - wobbleTailProb)
	return 1 + wobbleAmp*(2*t-1)
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	return h * fnvPrime64
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = fnvByte(h, c)
	}
	return h
}

// accessPath is the costed result of producing one base relation's filtered
// rows: total cost, output cardinality, and the chosen operator and object
// (read only by Explain).
type accessPath struct {
	cost   float64
	rows   float64
	op     string
	detail string
}

// reads is what a plan reads from one table, for covering checks: the
// table's referenced columns (a sub-range of Analysis.Referenced), or —
// for the locate part of DML — only the columns of the statement's
// predicates on the table.
type reads struct {
	cols  []sqlparse.TableColumn
	preds []sqlparse.ColumnPredicate
}

// refReads returns the table's referenced columns: the contiguous
// sub-range of a.Referenced, which the analyzer sorts by (table, column).
//
//physdes:zeroalloc
func refReads(a *sqlparse.Analysis, table string) reads {
	lo, hi := 0, len(a.Referenced)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.Referenced[mid].Table < table {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	hi = lo
	for hi < len(a.Referenced) && a.Referenced[hi].Table == table {
		hi++
	}
	return reads{cols: a.Referenced[lo:hi]}
}

// coveredBy reports whether an index-only plan over ix can produce what r
// reads.
func (r reads) coveredBy(ix *physical.Index) bool {
	if r.preds == nil {
		return ix.Covers(r.cols)
	}
	for i := range r.preds {
		if r.preds[i].Col.Table == ix.Table && !ix.HasColumn(r.preds[i].Col.Column) {
			return false
		}
	}
	return true
}

// bestAccess returns the cheapest way to produce the filtered rows of table
// under cfg, reading need from it. The candidate set contains the heap
// scan plus one entry per index; the minimum over the set makes the
// optimizer well-behaved: adding an index can only add candidates. The
// winner's operator name and object are recorded for Explain.
//
//physdes:zeroalloc
func (o *Optimizer) bestAccess(a *sqlparse.Analysis, table string, cfg *physical.Configuration, need reads) accessPath {
	t, ok := o.cat.Table(table)
	if !ok {
		return accessPath{cost: SeqPageCost, rows: 1, op: "HeapScan", detail: table}
	}
	rows := float64(t.Rows)
	sel := o.tableSelectivity(a, table)
	outRows := rows * sel
	if outRows < 1 {
		outRows = 1
	}
	numPreds := 0
	for i := range a.Preds {
		if a.Preds[i].Col.Table == table {
			numPreds++
		}
	}

	// Heap scan baseline.
	heapCost := float64(t.Pages())*SeqPageCost +
		rows*CPUTupleCost +
		rows*float64(numPreds)*CPUOperatorCost
	best := accessPath{
		cost:   heapCost * o.pathWobble(a, table, "heap"),
		rows:   outRows,
		op:     "HeapScan",
		detail: table,
	}

	for _, ix := range cfg.IndexesOn(table) {
		p := o.indexAccess(a, t, ix, outRows, numPreds, need)
		p.cost *= o.pathWobble(a, table, ix.ID())
		if p.cost < best.cost {
			p.detail = ix.ID()
			best = p
		}
	}
	return best
}

// indexAccess costs one index-based plan for the table.
func (o *Optimizer) indexAccess(a *sqlparse.Analysis, t *catalog.Table, ix *physical.Index, outRows float64, numPreds int, need reads) accessPath {
	rows := float64(t.Rows)
	idxPages := float64(ix.SizeBytes(o.cat)) / catalog.PageSize
	if idxPages < 1 {
		idxPages = 1
	}

	// Match a seek prefix: consecutive equality predicates on the key
	// columns, optionally finished by one range predicate.
	seekSel := 1.0
	matched := 0
	for _, keyCol := range ix.Key {
		p, kind := findSargable(a, t.Name, keyCol)
		if kind == sargEq {
			seekSel *= o.predSelectivity(p)
			matched++
			continue
		}
		if kind == sargRange {
			seekSel *= o.predSelectivity(p)
			matched++
		}
		break
	}

	covers := need.coveredBy(ix)
	var cost float64
	op := ""
	switch {
	case matched > 0:
		seekRows := rows * seekSel
		if seekRows < 1 {
			seekRows = 1
		}
		leafPages := idxPages * seekSel
		if leafPages < 1 {
			leafPages = 1
		}
		cost = BTreeDescentCost + leafPages*SeqPageCost + seekRows*CPUIndexTupleCost
		if !covers {
			// Row fetches: random I/O per matching entry, capped by the
			// bitmap-style full-relation pass.
			fetchRand := seekRows * RandPageCost
			fetchBitmap := float64(t.Pages())*SeqPageCost + seekRows*CPUTupleCost
			if fetchBitmap < fetchRand {
				cost += fetchBitmap
			} else {
				cost += fetchRand
			}
		}
		// Residual predicate evaluation on the seek output.
		cost += seekRows * float64(numPreds-matched) * CPUOperatorCost
		op = "IndexSeek"
	case covers:
		// Covering index scan: the whole index, but narrower than the heap.
		cost = idxPages*SeqPageCost + rows*CPUIndexTupleCost +
			rows*float64(numPreds)*CPUOperatorCost
		op = "IndexScan"
	default:
		// Unusable: full index scan plus full fetch is never better than a
		// heap scan; return an effectively infinite path.
		return accessPath{cost: 1e18, rows: outRows}
	}
	return accessPath{cost: cost, rows: outRows, op: op}
}

// bestAccessOrdered returns the cheapest access path on table whose
// produced order starts with the columns of wantPrefix — the "interesting
// order" arm used for sort elimination and merge joins. Considering it as
// a separate minimum (rather than only checking whether the
// overall-cheapest path happens to be ordered) keeps the optimizer
// well-behaved: a new index can displace the cheapest path without making
// ordered plans disappear.
//
//physdes:zeroalloc
func (o *Optimizer) bestAccessOrdered(a *sqlparse.Analysis, table string, cfg *physical.Configuration, need reads, wantPrefix []sqlparse.OrderColumn) (accessPath, bool) {
	if len(wantPrefix) == 0 {
		return accessPath{}, false
	}
	t, ok := o.cat.Table(table)
	if !ok {
		return accessPath{}, false
	}
	rows := float64(t.Rows)
	sel := o.tableSelectivity(a, table)
	outRows := rows * sel
	if outRows < 1 {
		outRows = 1
	}
	numPreds := 0
	for i := range a.Preds {
		if a.Preds[i].Col.Table == table {
			numPreds++
		}
	}
	var best accessPath
	found := false
	for _, ix := range cfg.IndexesOn(table) {
		if !keyHasPrefix(ix.Key, wantPrefix) {
			continue
		}
		p := o.indexAccess(a, t, ix, outRows, numPreds, need)
		if p.cost >= 1e17 {
			continue // unusable path
		}
		p.cost *= o.pathWobble(a, table, ix.ID())
		if !found || p.cost < best.cost {
			p.detail = ix.ID()
			best = p
			found = true
		}
	}
	return best, found
}

// keyHasPrefix reports whether the index key starts with the prefix's
// column names.
func keyHasPrefix(key []string, prefix []sqlparse.OrderColumn) bool {
	if len(prefix) > len(key) {
		return false
	}
	for i := range prefix {
		if key[i] != prefix[i].Col.Column {
			return false
		}
	}
	return true
}

type sargKind int

const (
	sargNone sargKind = iota
	sargEq
	sargRange
)

// findSargable locates a conjunctive sargable predicate on table.column.
// Equality (including IN, treated as a small set of seeks) beats range.
// It reads only the analysis, so the atom decomposition (atoms.go) shares
// it to predict which indexes an access path can seek.
func findSargable(a *sqlparse.Analysis, table, column string) (sqlparse.ColumnPredicate, sargKind) {
	var rangePred sqlparse.ColumnPredicate
	haveRange := false
	for i := range a.Preds {
		p := &a.Preds[i]
		if p.InDisjunction || p.Col.Table != table || p.Col.Column != column {
			continue
		}
		switch p.Kind {
		case sqlparse.PredEq, sqlparse.PredIn:
			return *p, sargEq
		case sqlparse.PredRange:
			if !haveRange {
				rangePred, haveRange = *p, true
			}
		case sqlparse.PredLike:
			// A prefix LIKE is a range seek; a contains-LIKE is not.
			if !haveRange && len(p.LikePattern) > 1 && p.LikePattern[1] != '%' {
				rangePred, haveRange = *p, true
			}
		}
	}
	if haveRange {
		return rangePred, sargRange
	}
	return sqlparse.ColumnPredicate{}, sargNone
}
