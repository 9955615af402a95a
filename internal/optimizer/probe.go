package optimizer

import (
	"physdes/internal/catalog"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// Bind stamps a against cat: every predicate with its selectivity, and the
// statement's shape — its tables, joins and referenced columns — with what
// the cost model would otherwise look up by name on every what-if call
// (see binding). None of it depends
// on the configuration, so an optimizer over cat reads the stamps instead;
// an optimizer over any other catalog ignores them. workload.Parse binds
// each statement before sharing it. Binding changes no cost: the stamps
// are what the unbound path computes.
//
// Statements of one shape share their shape's stamps: binding a statement
// whose shape stamps already fit it (as a copy of a bound statement's
// analysis does) allocates nothing.
//
//physdes:zeroalloc
func Bind(cat *catalog.Catalog, a *sqlparse.Analysis) {
	if b, ok := a.Bound.(*binding); !ok || b.cat != cat || !b.fits(a) {
		a.Bound = newBinding(cat, a) //physdes:allocok once per statement shape: later statements of the shape share the stamps
	}
	for i := range a.Preds {
		a.Preds[i].Sel = estimateSelectivity(cat, &a.Preds[i])
	}
}

// binding is what Bind resolves once per statement shape against one
// catalog. It is read-only once built.
type binding struct {
	cat *catalog.Catalog
	// tables, refs and joins are the shape's slices the binding was
	// resolved from: a binding fits only an analysis holding these very
	// slices.
	tables []string
	refs   []sqlparse.TableColumn
	joins  []sqlparse.JoinPredicate
	npreds int
	ngroup int

	slots    []slotBinding // per a.Tables entry
	predSlot []int32       // per a.Preds entry: its table's slot
	joinSlot [][2]int32    // per a.Joins entry: its left and right tables' slots
	joinD    []float64     // per a.Joins entry: joinDistinct
	groups   float64       // groupDistinct
}

// slotBinding is the catalog's view of one statement table.
type slotBinding struct {
	t            *catalog.Table // nil: not in the catalog
	refLo, refHi int32          // the table's run of a.Referenced
	heapKey      uint64         // the heap path's key (physical.PathKey)
}

func newBinding(cat *catalog.Catalog, a *sqlparse.Analysis) *binding {
	b := &binding{
		cat:      cat,
		tables:   a.Tables,
		refs:     a.Referenced,
		joins:    a.Joins,
		npreds:   len(a.Preds),
		ngroup:   len(a.GroupBy),
		slots:    make([]slotBinding, len(a.Tables)),
		predSlot: make([]int32, len(a.Preds)),
		joinSlot: joinSlots(a, make([][2]int32, len(a.Joins))),
		joinD:    make([]float64, len(a.Joins)),
		groups:   groupDistinct(cat, a),
	}
	for s := range a.Tables {
		b.slots[s] = bindSlot(cat, a, s)
	}
	for i := range a.Preds {
		b.predSlot[i] = int32(tableIndex(a, a.Preds[i].Col.Table))
	}
	for i, j := range a.Joins {
		b.joinD[i] = joinDistinct(cat, j)
	}
	return b
}

// joinSlots fills dst with each join's left and right table slots.
//
//physdes:zeroalloc
func joinSlots(a *sqlparse.Analysis, dst [][2]int32) [][2]int32 {
	for i := range a.Joins {
		j := &a.Joins[i]
		dst[i] = [2]int32{int32(tableIndex(a, j.Left.Table)), int32(tableIndex(a, j.Right.Table))}
	}
	return dst
}

// bindSlot resolves a.Tables[s] against cat.
//
//physdes:zeroalloc
func bindSlot(cat *catalog.Catalog, a *sqlparse.Analysis, s int) slotBinding {
	name := a.Tables[s]
	t, _ := cat.Table(name)
	lo, hi := referencedRange(a, name)
	return slotBinding{t: t, refLo: int32(lo), refHi: int32(hi), heapKey: physical.PathKey(name, "heap")}
}

// refReads returns what a, whose binding b is, reads of table slot s.
//
//physdes:zeroalloc
func (b *binding) refReads(a *sqlparse.Analysis, s int) reads {
	return reads{cols: a.Referenced[b.slots[s].refLo:b.slots[s].refHi]}
}

// fits reports whether the binding was resolved for a's shape: a holds
// the very slices it was resolved from. A statement instantiated from a
// bound one shares them; any other analysis does not.
//
//physdes:zeroalloc
func (b *binding) fits(a *sqlparse.Analysis) bool {
	return sameSlice(b.tables, a.Tables) && sameSlice(b.refs, a.Referenced) && sameSlice(b.joins, a.Joins) &&
		b.npreds == len(a.Preds) && b.ngroup == len(a.GroupBy)
}

// shapeBinding returns a's binding when it fits a, whatever its catalog:
// the shape parts of a binding (table slots and referenced-column runs)
// hold under any catalog.
//
//physdes:zeroalloc
func shapeBinding(a *sqlparse.Analysis) *binding {
	if b, ok := a.Bound.(*binding); ok && b.fits(a) {
		return b
	}
	return nil
}

// sameSlice reports whether x and y are the same slice: one length and,
// unless empty, one backing array.
//
//physdes:zeroalloc
func sameSlice[T any](x, y []T) bool {
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

// stackPreds is the predicate count the probe's stack scratch holds.
const stackPreds = 16

// probe is one what-if evaluation's view of its statement under a
// configuration. newProbe resolves, once per evaluation, everything the
// cost model reads per statement table: the catalog table, the
// configuration's indexes on it, the table's combined selectivity and its
// referenced columns. The cost model then addresses tables by slot — an
// index into the sorted a.Tables — instead of by name. A statement bound
// to the optimizer's catalog supplies the catalog lookups from its stamps;
// an unbound one has them looked up by name.
type probe struct {
	o   *Optimizer
	a   *sqlparse.Analysis
	cfg *physical.Configuration
	// b is a's binding when it fits a and the optimizer's catalog: the one
	// guard on every stamp Bind leaves, the predicates' Sel included.
	b *binding

	slots    []slotProbe
	predSlot []int32
	joinSlot [][2]int32
}

// slotProbe is one statement table's per-evaluation state.
type slotProbe struct {
	slotBinding
	// on are cfg's indexes on the table.
	on []*physical.Index
	// sel is the table's combined selectivity, npred its predicate count.
	sel   float64
	npred int
}

// probeBuf is the stack scratch newProbe fills for statements up to
// stackTables tables and stackPreds predicates.
type probeBuf struct {
	slots    [stackTables]slotProbe
	predSlot [stackPreds]int32
	joinSlot [stackTables][2]int32
}

// newProbe resolves a's per-table state under cfg (nil: no structures)
// into buf, or heap scratch for a wider statement.
//
//physdes:zeroalloc
func (o *Optimizer) newProbe(a *sqlparse.Analysis, cfg *physical.Configuration, buf *probeBuf) probe {
	p := probe{o: o, a: a, cfg: cfg}
	if b := shapeBinding(a); b != nil && b.cat == o.cat {
		p.b = b
	}
	p.slots = scratch(buf.slots[:], len(a.Tables))[:len(a.Tables)]
	var runs []physical.TableIndexes
	if cfg != nil {
		runs = cfg.ByTable()
	}
	r := 0
	for s, name := range a.Tables {
		sp := &p.slots[s]
		if p.b != nil {
			sp.slotBinding = p.b.slots[s]
		} else {
			sp.slotBinding = bindSlot(o.cat, a, s)
		}
		// a.Tables and the configuration's runs are both in table order.
		for r < len(runs) && runs[r].Table < name {
			r++
		}
		sp.on = nil
		if r < len(runs) && runs[r].Table == name {
			sp.on = runs[r].Indexes
			r++
		}
	}
	if p.b != nil {
		p.predSlot, p.joinSlot = p.b.predSlot, p.b.joinSlot
	} else {
		p.predSlot = scratch(buf.predSlot[:], len(a.Preds))[:len(a.Preds)]
		for i := range a.Preds {
			p.predSlot[i] = int32(tableIndex(a, a.Preds[i].Col.Table))
		}
		p.joinSlot = joinSlots(a, scratch(buf.joinSlot[:], len(a.Joins))[:len(a.Joins)])
	}
	p.selectivities()
	return p
}

// selectivities combines each table's predicates into its selectivity:
// conjunctive predicates multiply (independence assumption); predicates
// under disjunctions contribute an OR-combined factor 1-Π(1-sᵢ). Each
// table's factors multiply in predicate order.
//
//physdes:zeroalloc
func (p *probe) selectivities() {
	var missBuf [stackTables]float64
	var disjBuf [stackTables]bool
	n := len(p.slots)
	disjMiss := scratch(missBuf[:], n)[:n]
	hasDisj := scratch(disjBuf[:], n)[:n]
	for s := range p.slots {
		p.slots[s].sel, p.slots[s].npred = 1, 0
		disjMiss[s], hasDisj[s] = 1, false
	}
	for i := range p.a.Preds {
		s := p.predSlot[i]
		if s < 0 {
			continue
		}
		pr := &p.a.Preds[i]
		sp := &p.slots[s]
		sp.npred++
		sel := p.predSelectivity(pr)
		if pr.InDisjunction {
			hasDisj[s] = true
			disjMiss[s] *= 1 - sel
		} else {
			sp.sel *= sel
		}
	}
	for s := range p.slots {
		sp := &p.slots[s]
		if hasDisj[s] {
			sp.sel *= clampSel(1 - disjMiss[s])
		}
		sp.sel = clampSel(sp.sel)
	}
}

// refReads returns what the statement reads of table slot s: its run of
// the referenced columns.
//
//physdes:zeroalloc
func (p *probe) refReads(s int) reads {
	sp := &p.slots[s]
	return reads{cols: p.a.Referenced[sp.refLo:sp.refHi]}
}

// joinDistinct is join ji's |T1⋈T2| denominator.
//
//physdes:zeroalloc
func (p *probe) joinDistinct(ji int) float64 {
	if p.b != nil {
		return p.b.joinD[ji]
	}
	return joinDistinct(p.o.cat, p.a.Joins[ji])
}

// groupDistinct is the statement's grouping granularity.
//
//physdes:zeroalloc
func (p *probe) groupDistinct() float64 {
	if p.b != nil {
		return p.b.groups
	}
	return groupDistinct(p.o.cat, p.a)
}

// joinDistinct is the classic |T1⋈T2| denominator max(d_left, d_right).
func joinDistinct(cat *catalog.Catalog, j sqlparse.JoinPredicate) float64 {
	d := 1
	if c, ok := cat.ColumnStats(j.Left.Table, j.Left.Column); ok && c.Distinct > d {
		d = c.Distinct
	}
	if c, ok := cat.ColumnStats(j.Right.Table, j.Right.Column); ok && c.Distinct > d {
		d = c.Distinct
	}
	return float64(d)
}

// groupDistinct is the product of the statement's grouping columns'
// distinct counts (unknown columns count 1): the cardinality bound of its
// rollup.
func groupDistinct(cat *catalog.Catalog, a *sqlparse.Analysis) float64 {
	groups := 1.0
	for _, g := range a.GroupBy {
		if c, ok := cat.ColumnStats(g.Table, g.Column); ok && c.Distinct > 0 {
			groups *= float64(c.Distinct)
		}
	}
	return groups
}

// referencedRange returns the bounds of table's contiguous run of
// a.Referenced, which the analyzer sorts by (table, column).
//
//physdes:zeroalloc
func referencedRange(a *sqlparse.Analysis, table string) (lo, hi int) {
	lo, hi = 0, len(a.Referenced)
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
	return lo, hi
}
