// Package physical models physical database design structures — secondary
// indexes and materialized (join) views — and configurations, i.e. the sets
// of structures a what-if optimizer costs queries against. It also
// implements candidate-structure enumeration from a workload and the
// generation of large configuration spaces for the paper's k=50/100/500
// experiments.
package physical

import (
	"fmt"
	"sort"
	"strings"

	"physdes/internal/catalog"
	"physdes/internal/sqlparse"
)

// Structure is a physical design structure that can be part of a
// configuration.
type Structure interface {
	// ID returns a canonical identifier; two structures are the same
	// design object exactly when their IDs are equal.
	ID() string
	// SizeBytes estimates the storage footprint under the catalog.
	SizeBytes(cat *catalog.Catalog) int64
}

// Index is a (secondary) B-tree index on one table: ordered key columns
// plus optional included (covering-only) columns.
type Index struct {
	Table   string
	Key     []string
	Include []string

	id      string
	pathKey uint64
	sized   sizing
}

// sizing is a structure's size estimates under the catalog it was
// enumerated from (cat nil: none). EnumerateCandidates fills it before
// the structure is shared, so reads under that catalog cost nothing and
// need no synchronization; reads under any other catalog estimate
// afresh.
type sizing struct {
	cat   *catalog.Catalog
	bytes int64
	rows  int64 // views only
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// PathKey is FNV-1a 64 over table, a zero byte, then id: the identity of
// an access path named id on table (see Index.PathKey).
func PathKey(table, id string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(table); i++ {
		h = (h ^ uint64(table[i])) * fnvPrime64
	}
	h *= fnvPrime64 // the zero byte: h ^ 0 is h
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * fnvPrime64
	}
	return h
}

// NewIndex builds an index. Key order is significant; include columns are
// canonicalized (sorted, de-duplicated, minus key columns).
func NewIndex(table string, key []string, include ...string) *Index {
	k := append([]string(nil), key...)
	keySet := make(map[string]bool, len(k))
	for _, c := range k {
		keySet[c] = true
	}
	var inc []string
	seen := make(map[string]bool)
	for _, c := range include {
		if !keySet[c] && !seen[c] {
			inc = append(inc, c)
			seen[c] = true
		}
	}
	sort.Strings(inc)
	ix := &Index{Table: table, Key: k, Include: inc}
	ix.id = "IX(" + table + ";" + strings.Join(k, ",") + ";" + strings.Join(inc, ",") + ")"
	ix.pathKey = PathKey(table, ix.id)
	return ix
}

// ID implements Structure.
func (ix *Index) ID() string { return ix.id }

// PathKey returns FNV-1a 64 over the index's table name, a zero byte and
// its ID, computed once at construction: the identity of the index's
// access path, which the what-if optimizer keys its per-path cost
// variability by.
func (ix *Index) PathKey() uint64 { return ix.pathKey }

// LeadColumn returns the first key column.
func (ix *Index) LeadColumn() string { return ix.Key[0] }

// Covers reports whether every column in cols is present in the index (key
// or include), i.e. whether an index-only plan can answer a query touching
// exactly cols on this table. Only the column names are compared: cols are
// the referenced columns of the index's table.
func (ix *Index) Covers(cols []sqlparse.TableColumn) bool {
	for _, c := range cols {
		if !ix.HasColumn(c.Column) {
			return false
		}
	}
	return true
}

// HasColumn reports whether c is a key or include column of the index.
func (ix *Index) HasColumn(c string) bool {
	for _, k := range ix.Key {
		if k == c {
			return true
		}
	}
	for _, i := range ix.Include {
		if i == c {
			return true
		}
	}
	return false
}

// SizeBytes implements Structure: rows × (key+include widths + row pointer).
func (ix *Index) SizeBytes(cat *catalog.Catalog) int64 {
	if ix.sized.cat == cat && cat != nil {
		return ix.sized.bytes
	}
	return ix.sizeBytes(cat)
}

func (ix *Index) sizeBytes(cat *catalog.Catalog) int64 {
	t, ok := cat.Table(ix.Table)
	if !ok {
		return 0
	}
	const rowPtr = 8
	w := rowPtr
	for _, c := range ix.Key {
		if col, ok := t.Column(c); ok {
			w += col.Width
		}
	}
	for _, c := range ix.Include {
		if col, ok := t.Column(c); ok {
			w += col.Width
		}
	}
	return int64(t.Rows) * int64(w)
}

// String implements fmt.Stringer.
func (ix *Index) String() string { return ix.id }

// View is a materialized join view: the join of Tables on Joins, projecting
// Columns. (Single-table aggregate views are expressed as a View with one
// table and GroupBy columns.)
type View struct {
	Tables  []string
	Joins   []sqlparse.JoinPredicate
	Columns []sqlparse.TableColumn
	GroupBy []sqlparse.TableColumn

	id      string
	pathKey uint64
	sized   sizing
}

// NewView builds a view with canonicalized (sorted) components.
func NewView(tables []string, joins []sqlparse.JoinPredicate, columns, groupBy []sqlparse.TableColumn) *View {
	v := &View{
		Tables:  append([]string(nil), tables...),
		Joins:   append([]sqlparse.JoinPredicate(nil), joins...),
		Columns: append([]sqlparse.TableColumn(nil), columns...),
		GroupBy: append([]sqlparse.TableColumn(nil), groupBy...),
	}
	sort.Strings(v.Tables)
	sort.Slice(v.Joins, func(i, j int) bool { return v.Joins[i].JoinKey() < v.Joins[j].JoinKey() })
	sortCols := func(cols []sqlparse.TableColumn) {
		sort.Slice(cols, func(i, j int) bool {
			if cols[i].Table != cols[j].Table {
				return cols[i].Table < cols[j].Table
			}
			return cols[i].Column < cols[j].Column
		})
	}
	sortCols(v.Columns)
	sortCols(v.GroupBy)

	var b strings.Builder
	b.WriteString("MV(")
	b.WriteString(strings.Join(v.Tables, ","))
	b.WriteByte(';')
	for i, j := range v.Joins {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(j.JoinKey())
	}
	b.WriteByte(';')
	for i, c := range v.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.String())
	}
	b.WriteByte(';')
	for i, c := range v.GroupBy {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.String())
	}
	b.WriteByte(')')
	v.id = b.String()
	if len(v.Tables) > 0 {
		v.pathKey = PathKey(v.Tables[0], v.id)
	}
	return v
}

// ID implements Structure.
func (v *View) ID() string { return v.id }

// PathKey returns FNV-1a 64 over the view's first table name, a zero byte
// and its ID, computed once at construction: the identity of the view
// scan's access path, as Index.PathKey is an index's.
func (v *View) PathKey() uint64 { return v.pathKey }

// String implements fmt.Stringer.
func (v *View) String() string { return v.id }

// HasTable reports whether the view joins the named table.
func (v *View) HasTable(name string) bool {
	for _, t := range v.Tables {
		if t == name {
			return true
		}
	}
	return false
}

// EstimatedRows estimates the view's cardinality under the catalog: the
// standard join estimate |T1|·|T2|/max(d1,d2) folded over the join edges,
// and the product of group-by distinct counts (capped by the join size)
// when the view aggregates.
func (v *View) EstimatedRows(cat *catalog.Catalog) int64 {
	if v.sized.cat == cat && cat != nil {
		return v.sized.rows
	}
	return v.estimateRows(cat)
}

func (v *View) estimateRows(cat *catalog.Catalog) int64 {
	if len(v.Tables) == 0 {
		return 0
	}
	t0, ok := cat.Table(v.Tables[0])
	if !ok {
		return 0
	}
	rows := float64(t0.Rows)
	// joined lists the tables folded in so far; each edge folds in one.
	var buf [8]string
	joined := buf[:0]
	if n := len(v.Joins) + 1; n > len(buf) {
		joined = make([]string, 0, n) //physdes:allocok views with more than 7 join edges outgrow the stack array; sized once per call
	}
	joined = joined[:1]
	joined[0] = v.Tables[0]
	// Fold join edges in canonical order, restarting the scan after each
	// fold; each edge multiplies by the other side's rows over the max
	// distinct count of the join columns. A folded edge has both sides
	// joined, so later scans pass over it.
	for progress := true; progress; {
		progress = false
		for _, j := range v.Joins {
			var newTable string
			var newCol, oldCol sqlparse.TableColumn
			left, right := containsString(joined, j.Left.Table), containsString(joined, j.Right.Table)
			switch {
			case left && !right:
				newTable, newCol, oldCol = j.Right.Table, j.Right, j.Left
			case right && !left:
				newTable, newCol, oldCol = j.Left.Table, j.Left, j.Right
			default:
				continue
			}
			nt, ok := cat.Table(newTable)
			if !ok {
				continue
			}
			d1 := distinctOf(cat, oldCol)
			d2 := distinctOf(cat, newCol)
			d := d1
			if d2 > d {
				d = d2
			}
			if d < 1 {
				d = 1
			}
			rows = rows * float64(nt.Rows) / float64(d)
			joined = joined[:len(joined)+1]
			joined[len(joined)-1] = newTable
			progress = true
			break
		}
	}
	if len(v.GroupBy) > 0 {
		groups := 1.0
		for _, g := range v.GroupBy {
			groups *= float64(distinctOf(cat, g))
		}
		if groups < rows {
			rows = groups
		}
	}
	if rows < 1 {
		rows = 1
	}
	return int64(rows)
}

func containsString(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

func distinctOf(cat *catalog.Catalog, tc sqlparse.TableColumn) int {
	c, ok := cat.ColumnStats(tc.Table, tc.Column)
	if !ok || c.Distinct < 1 {
		return 1
	}
	return c.Distinct
}

// SizeBytes implements Structure.
func (v *View) SizeBytes(cat *catalog.Catalog) int64 {
	if v.sized.cat == cat && cat != nil {
		return v.sized.bytes
	}
	return v.sizeBytes(cat)
}

func (v *View) sizeBytes(cat *catalog.Catalog) int64 {
	w := 0
	for _, c := range v.Columns {
		if col, ok := cat.ColumnStats(c.Table, c.Column); ok {
			w += col.Width
		}
	}
	if w == 0 {
		w = 8
	}
	return v.EstimatedRows(cat) * int64(w)
}

// sizeUnder records s's size estimates under cat, so later reads under
// cat cost nothing. Callers own s: it must not be shared yet.
func sizeUnder(s Structure, cat *catalog.Catalog) {
	switch x := s.(type) {
	case *Index:
		x.sized = sizing{cat: cat, bytes: x.sizeBytes(cat)}
	case *View:
		x.sized = sizing{cat: cat, bytes: x.sizeBytes(cat), rows: x.estimateRows(cat)}
	}
}

// ensure interface compliance
var (
	_ Structure    = (*Index)(nil)
	_ Structure    = (*View)(nil)
	_ fmt.Stringer = (*Index)(nil)
	_ fmt.Stringer = (*View)(nil)
)
