package optimizer

import (
	"slices"
	"strings"

	"physdes/internal/catalog"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// stackTables is the statement width the probe path's stack scratch
// holds; costing a wider statement sizes heap scratch once per call.
const stackTables = 8

// relation is one input to the join phase: a filtered base table, or a
// matched materialized view standing in for several base tables.
type relation struct {
	set   int // offset of the relation's table set in its tableSets
	first int // lowest a.Tables index it covers: the join-order tiebreak
	cost  float64
	rows  float64
	// baseTable is set for single-table relations so index nested-loop
	// joins can seek into them.
	baseTable string
	joined    bool
	// op and detail name the relation's access operator for Explain.
	op, detail string
}

// joinStep records one greedy join step for Explain: the relation joined
// in (an index into the plan's relations), the chosen operator and
// predicate, and the cumulative cost and cardinality after the step.
type joinStep struct {
	next int
	op   string
	pred *sqlparse.JoinPredicate
	cost float64
	rows float64
}

// tableSets stores bitmasks over a statement's sorted a.Tables, w words
// each: bit i of a set stands for a.Tables[i]. A set is named by the
// offset of its first word, so relations carry no pointers into scratch.
type tableSets struct {
	words []uint64
	w     int
}

func (s tableSets) has(set, i int) bool {
	return i >= 0 && s.words[set+(i>>6)]&(1<<(uint(i)&63)) != 0
}

func (s tableSets) add(set, i int) { s.words[set+(i>>6)] |= 1 << (uint(i) & 63) }

// union adds the tables of set src to set dst.
func (s tableSets) union(dst, src int) {
	for k := 0; k < s.w; k++ {
		s.words[dst+k] |= s.words[src+k]
	}
}

// tableIndex returns the position of table in the sorted a.Tables, or -1.
func tableIndex(a *sqlparse.Analysis, table string) int {
	if i, ok := slices.BinarySearch(a.Tables, table); ok {
		return i
	}
	return -1
}

// scratch returns buf[:0] when n elements fit in it, else an empty heap
// slice with room for n.
func scratch[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:0]
	}
	return make([]T, 0, n) //physdes:allocok inputs wider than the caller's stack arrays (over stackTables tables or atomStackLen structures) get heap scratch sized once per call
}

// put appends x within s's capacity. Scratch is sized up front for the
// statement, so it never grows.
func put[T any](s []T, x T) []T {
	s = s[:len(s)+1]
	s[len(s)-1] = x
	return s
}

// selectPlan is the record of one SELECT evaluation: the join inputs in
// join order and each join step, then the cost after each later stage.
// Costing reads only cost; Explain rebuilds the operator tree from the
// rest, so the costing path builds no tree.
type selectPlan struct {
	rels  []relation
	steps []joinStep
	rows  float64 // output cardinality of the join phase

	// Sort stage: eliminated when the cheapest ordered access path beat
	// scanning then sorting (ordered is that path), else sorted when a
	// sort pass was charged (sortCost is the cumulative cost after it).
	eliminated bool
	ordered    accessPath
	sorted     bool
	sortCost   float64

	aggCost float64 // cumulative cost after the aggregate, if any
	cost    float64 // total
}

// costSelect estimates the cost of a SELECT under cfg.
//
//physdes:zeroalloc
func (o *Optimizer) costSelect(a *sqlparse.Analysis, cfg *physical.Configuration) float64 {
	var rels [stackTables]relation
	var steps [stackTables]joinStep
	var words [stackTables + 1]uint64
	return o.planSelect(a, cfg, rels[:], steps[:], words[:]).cost
}

// planSelect evaluates a SELECT under cfg using the caller's scratch for
// the relations, join steps and table sets (heap slices replace any that
// are too small).
//
//physdes:zeroalloc
func (o *Optimizer) planSelect(a *sqlparse.Analysis, cfg *physical.Configuration, relBuf []relation, stepBuf []joinStep, wordBuf []uint64) selectPlan {
	n := len(a.Tables)
	w := (n + 63) / 64
	sets := tableSets{words: scratch(wordBuf, (n+1)*w)[:(n+1)*w], w: w}
	clear(sets.words)
	rels := o.buildRelations(a, cfg, sets, scratch(relBuf, n))
	res, steps := o.joinRelations(a, cfg, sets, rels, scratch(stepBuf, n))
	p := selectPlan{rels: rels, steps: steps, rows: res.rows}

	// DISTINCT / GROUP BY / ORDER BY: one sort (or hash aggregate) pass.
	// For a single-table ORDER BY the cheapest *ordered* access path is an
	// alternative arm to scanning-then-sorting; taking the minimum of the
	// two arms (rather than checking whether the overall-cheapest path
	// happens to be ordered) keeps the optimizer well-behaved.
	if len(a.OrderBy) > 0 || a.Distinct || len(a.GroupBy) > 0 {
		n := res.rows
		if n < 2 {
			n = 2
		}
		sortCost := n * log2(n) * SortRowCost
		if len(rels) == 1 && rels[0].baseTable != "" && !a.Distinct &&
			len(a.GroupBy) == 0 && len(a.OrderBy) > 0 {
			ordered, ok := o.bestAccessOrdered(a, rels[0].baseTable, cfg,
				refReads(a, rels[0].baseTable), a.OrderBy)
			if ok && ordered.cost < res.cost+sortCost {
				res.cost = ordered.cost
				p.eliminated, p.ordered = true, ordered
			}
		}
		if !p.eliminated {
			res.cost += sortCost
			p.sorted, p.sortCost = true, res.cost
		}
	}
	if a.HasAggregate {
		res.cost += res.rows * CPUOperatorCost
		p.aggCost = res.cost
	}
	// Output the final rows.
	res.cost += res.rows * CPUTupleCost
	p.cost = res.cost
	return p
}

// tree rebuilds the chosen operator tree of an evaluated SELECT.
func (p *selectPlan) tree(a *sqlparse.Analysis) *PlanNode {
	leaf := func(r relation) *PlanNode {
		return &PlanNode{Op: r.op, Detail: r.detail, Cost: r.cost, Rows: r.rows}
	}
	var node *PlanNode
	if len(p.rels) > 0 {
		node = leaf(p.rels[0])
		for _, st := range p.steps {
			detail := ""
			if st.pred != nil {
				detail = st.pred.JoinKey()
			}
			node = &PlanNode{
				Op: st.op, Detail: detail, Cost: st.cost, Rows: st.rows,
				Children: []*PlanNode{node, leaf(p.rels[st.next])},
			}
		}
	}
	if p.eliminated {
		node = &PlanNode{Op: "IndexSeek", Detail: p.ordered.detail, Cost: p.ordered.cost, Rows: p.rows}
		if p.ordered.op != "" {
			node.Op = p.ordered.op
		}
	}
	if p.sorted {
		cols := make([]string, len(a.OrderBy))
		for i, oc := range a.OrderBy {
			cols[i] = oc.Col.Column
		}
		node = &PlanNode{
			Op: "Sort", Detail: strings.Join(cols, ","), Cost: p.sortCost, Rows: p.rows,
			Children: []*PlanNode{node},
		}
	}
	if a.HasAggregate {
		node = &PlanNode{Op: "Aggregate", Cost: p.aggCost, Rows: p.rows, Children: []*PlanNode{node}}
	}
	if node != nil {
		node.Cost = p.cost
	}
	return node
}

// buildRelations produces the join inputs into rels, substituting
// matching materialized views for subsets of base tables where that is
// cheaper. Set 0 of sets marks the tables views have claimed; relation k
// owns the set after it.
//
//physdes:zeroalloc
func (o *Optimizer) buildRelations(a *sqlparse.Analysis, cfg *physical.Configuration, sets tableSets, rels []relation) []relation {
	const claimed = 0
	next := sets.w

	// Greedy view matching: consider views covering the most tables first,
	// ties by ID (cfg.Views is sorted by ID).
	views := cfg.Views()
	widest := 0
	for _, v := range views {
		widest = max(widest, len(v.Tables))
	}
	for size := widest; size > 0; size-- {
		for _, v := range views {
			if len(v.Tables) != size || !o.viewMatches(a, v, sets) {
				continue
			}
			rel := o.viewRelation(a, v)
			// Only take the view when it beats producing its tables directly.
			direct := 0.0
			for _, t := range v.Tables {
				direct += o.bestAccess(a, t, cfg, refReads(a, t)).cost
			}
			if rel.cost >= direct+1e-12 {
				continue
			}
			rel.set, rel.first = next, len(a.Tables)
			next += sets.w
			for _, t := range v.Tables {
				i := tableIndex(a, t)
				sets.add(rel.set, i)
				sets.add(claimed, i)
				rel.first = min(rel.first, i)
			}
			rels = put(rels, rel)
		}
	}

	for i, t := range a.Tables {
		if sets.has(claimed, i) {
			continue
		}
		ap := o.bestAccess(a, t, cfg, refReads(a, t))
		rel := relation{
			set:       next,
			first:     i,
			cost:      ap.cost,
			rows:      ap.rows,
			baseTable: t,
			op:        ap.op,
			detail:    ap.detail,
		}
		next += sets.w
		sets.add(rel.set, i)
		rels = put(rels, rel)
	}
	return rels
}

// viewTablesFree reports whether every table of v is a query table no
// earlier view has claimed.
func viewTablesFree(a *sqlparse.Analysis, v *physical.View, sets tableSets) bool {
	for _, t := range v.Tables {
		i := tableIndex(a, t)
		if i < 0 || sets.has(0, i) {
			return false
		}
	}
	return true
}

// hasJoin reports whether the query has join predicate j (the same
// left and right columns, as JoinKey equality requires).
func hasJoin(joins []sqlparse.JoinPredicate, j sqlparse.JoinPredicate) bool {
	for _, q := range joins {
		if q == j {
			return true
		}
	}
	return false
}

func hasColumn(cols []sqlparse.TableColumn, tc sqlparse.TableColumn) bool {
	for _, c := range cols {
		if c == tc {
			return true
		}
	}
	return false
}

// viewMatches reports whether view v can replace a subset of the query's
// unclaimed tables. Plain join views match when all their tables are still
// unclaimed, all their join edges appear in the query, and they expose
// every column the query references on those tables. Aggregate views are
// dispatched to aggViewMatches.
func (o *Optimizer) viewMatches(a *sqlparse.Analysis, v *physical.View, sets tableSets) bool {
	if len(v.GroupBy) > 0 {
		return o.aggViewMatches(a, v, sets)
	}
	if len(v.Tables) < 2 || !viewTablesFree(a, v, sets) {
		return false
	}
	for _, j := range v.Joins {
		if !hasJoin(a.Joins, j) {
			return false
		}
	}
	for _, tc := range a.Referenced {
		if contains(v.Tables, tc.Table) && !hasColumn(v.Columns, tc) {
			return false
		}
	}
	return true
}

// aggViewMatches implements rollup matching for aggregate views: the view
// pre-aggregates the join of its tables at GroupBy granularity, storing
// SUM/COUNT-style measures that can be aggregated further. It answers the
// query exactly when
//
//   - the view's tables are the query's tables (full replacement — an
//     aggregate cannot participate in further joins soundly),
//   - view and query agree on the join edges,
//   - every query grouping column and every sargable predicate column lies
//     in the view's GroupBy (so filters and the final rollup apply to
//     retained dimensions), and
//   - every other referenced column (the measures) is stored in Columns.
func (o *Optimizer) aggViewMatches(a *sqlparse.Analysis, v *physical.View, sets tableSets) bool {
	if len(a.GroupBy) == 0 || a.HasDisjunction {
		return false
	}
	if len(v.Tables) != len(a.Tables) || !viewTablesFree(a, v, sets) {
		return false
	}
	if len(v.Joins) != len(a.Joins) {
		return false
	}
	for _, j := range v.Joins {
		if !hasJoin(a.Joins, j) {
			return false
		}
	}
	for _, g := range a.GroupBy {
		if !hasColumn(v.GroupBy, g) {
			return false
		}
	}
	for i := range a.Preds {
		if !hasColumn(v.GroupBy, a.Preds[i].Col) {
			return false
		}
	}
	for _, tc := range a.Referenced {
		if !hasColumn(v.GroupBy, tc) && !hasColumn(v.Columns, tc) {
			return false
		}
	}
	return true
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// viewRelation costs scanning a matched view with the query's predicates on
// its tables applied as residuals. For aggregate views the scan reads the
// pre-aggregated rows (far fewer than the underlying join) and the output
// is the further rollup to the query's grouping granularity.
func (o *Optimizer) viewRelation(a *sqlparse.Analysis, v *physical.View) relation {
	vRows := float64(v.EstimatedRows(o.cat))
	pages := float64(v.SizeBytes(o.cat)) / catalog.PageSize
	if pages < 1 {
		pages = 1
	}
	sel := 1.0
	for _, t := range v.Tables {
		sel *= o.tableSelectivity(a, t)
	}
	out := vRows * sel
	if len(v.GroupBy) > 0 && len(a.GroupBy) > 0 {
		// Rollup: the output cardinality is bounded by the query's own
		// grouping granularity.
		groups := 1.0
		for _, g := range a.GroupBy {
			if c, ok := o.cat.ColumnStats(g.Table, g.Column); ok && c.Distinct > 0 {
				groups *= float64(c.Distinct)
			}
		}
		if groups < out {
			out = groups
		}
	}
	if out < 1 {
		out = 1
	}
	cost := (pages*SeqPageCost + vRows*CPUTupleCost) *
		o.pathWobble(a, v.Tables[0], v.ID())
	return relation{cost: cost, rows: out, op: "ViewScan", detail: v.ID()}
}

// joinRelations folds the relations into one result with a greedy
// left-deep join order: start from the smallest relation, repeatedly join
// the smallest relation connected to the current set by a join predicate
// (falling back to a cross product with the smallest leftover). Each step
// takes the cheaper of a hash join and an index nested-loop join. The
// greedy order depends only on catalog statistics — never on the
// configuration — so adding structures can only lower each step's cost
// (well-behavedness, Section 6.1). rels is sorted into join order and each
// step is recorded into steps.
//
//physdes:zeroalloc
func (o *Optimizer) joinRelations(a *sqlparse.Analysis, cfg *physical.Configuration, sets tableSets, rels []relation, steps []joinStep) (relation, []joinStep) {
	if len(rels) == 0 {
		return relation{rows: 1}, steps
	}
	// Deterministic greedy order: smallest row count first (ties by first
	// table name so runs are reproducible; relations are disjoint, so the
	// order is total).
	slices.SortFunc(rels, func(x, y relation) int {
		if x.rows != y.rows {
			if x.rows < y.rows {
				return -1
			}
			return 1
		}
		return x.first - y.first
	})
	cur := rels[0]
	totalCost := cur.cost

	for pending := len(rels) - 1; pending > 0; pending-- {
		// rels is sorted by rows, so the first connected unjoined relation
		// is the smallest; with none connected, cross the smallest.
		idx, smallest := -1, -1
		var joinPred *sqlparse.JoinPredicate
		for i := 1; i < len(rels); i++ {
			if rels[i].joined {
				continue
			}
			if smallest < 0 {
				smallest = i
			}
			if jp := connecting(a, sets, cur.set, rels[i].set); jp != nil {
				idx, joinPred = i, jp
				break
			}
		}
		if idx < 0 {
			idx = smallest
		}
		rels[idx].joined = true
		next := rels[idx]

		// Candidate join arms; each arm's contribution is the pair of
		// access costs it needs plus the join operator itself. The minimum
		// over arms keeps the optimizer well-behaved: a growing
		// configuration only adds arms (or cheapens existing ones).
		joinOp := "CrossJoin"
		outRows := cur.rows * next.rows
		bestContribution := cur.cost + next.cost + hashJoinCost(cur.rows, next.rows)
		if joinPred != nil {
			joinOp = "HashJoin"
			d := o.joinDistinct(*joinPred)
			outRows = cur.rows * next.rows / d

			// Merge join: the cheapest *ordered* access paths of both
			// sides (interesting-order arms), when both are base tables.
			if cur.baseTable != "" && next.baseTable != "" {
				var curKey, nextKey [1]sqlparse.OrderColumn
				curKey[0].Col.Column = joinColumnOf(a, *joinPred, sets, cur.set)
				nextKey[0].Col.Column = joinColumnOf(a, *joinPred, sets, next.set)
				curOrd, okC := o.bestAccessOrdered(a, cur.baseTable, cfg,
					refReads(a, cur.baseTable), curKey[:])
				nextOrd, okN := o.bestAccessOrdered(a, next.baseTable, cfg,
					refReads(a, next.baseTable), nextKey[:])
				if okC && okN {
					if c := curOrd.cost + nextOrd.cost + mergeJoinCost(cur.rows, next.rows); c < bestContribution {
						bestContribution = c
						joinOp = "MergeJoin"
					}
				}
			}

			// Index nested loop: outer produced normally; the inner base
			// table is reached by per-row seeks instead of its access path.
			if next.baseTable != "" {
				if inner := o.indexNLCost(a, cfg, cur.rows, next, *joinPred); inner >= 0 {
					if c := cur.cost + inner; c < bestContribution {
						bestContribution = c
						joinOp = "IndexNLJoin"
					}
				}
			}
		}
		// totalCost already includes cur.cost (from initialization or the
		// previous iteration's bookkeeping) — rebase it so this step adds
		// exactly the chosen arm's contribution.
		totalCost -= cur.cost
		totalCost += bestContribution
		if outRows < 1 {
			outRows = 1
		}
		sets.union(cur.set, next.set)
		cur = relation{set: cur.set, rows: outRows, cost: totalCost}
		steps = put(steps, joinStep{next: idx, op: joinOp, pred: joinPred, cost: totalCost, rows: outRows})
	}
	cur.cost = totalCost
	return cur, steps
}

// connecting returns a join predicate of the query linking the two table
// sets, or nil.
func connecting(a *sqlparse.Analysis, sets tableSets, left, right int) *sqlparse.JoinPredicate {
	for i := range a.Joins {
		j := &a.Joins[i]
		l, r := tableIndex(a, j.Left.Table), tableIndex(a, j.Right.Table)
		if (sets.has(left, l) && sets.has(right, r)) ||
			(sets.has(left, r) && sets.has(right, l)) {
			return j
		}
	}
	return nil
}

// joinDistinct is the classic |T1⋈T2| denominator max(d_left, d_right).
func (o *Optimizer) joinDistinct(j sqlparse.JoinPredicate) float64 {
	d := 1
	if c, ok := o.cat.ColumnStats(j.Left.Table, j.Left.Column); ok && c.Distinct > d {
		d = c.Distinct
	}
	if c, ok := o.cat.ColumnStats(j.Right.Table, j.Right.Column); ok && c.Distinct > d {
		d = c.Distinct
	}
	return float64(d)
}

func hashJoinCost(buildRows, probeRows float64) float64 {
	// Build on the smaller side.
	if probeRows < buildRows {
		buildRows, probeRows = probeRows, buildRows
	}
	return buildRows*HashBuildCost + probeRows*CPUTupleCost
}

// mergeJoinCost is a single interleaved pass over two pre-sorted inputs.
func mergeJoinCost(leftRows, rightRows float64) float64 {
	return (leftRows + rightRows) * CPUTupleCost
}

// joinColumnOf returns the join column belonging to the relation covering
// the table set, or "" when the predicate does not touch it.
func joinColumnOf(a *sqlparse.Analysis, j sqlparse.JoinPredicate, sets tableSets, set int) string {
	if sets.has(set, tableIndex(a, j.Left.Table)) {
		return j.Left.Column
	}
	if sets.has(set, tableIndex(a, j.Right.Table)) {
		return j.Right.Column
	}
	return ""
}

// indexNLCost costs an index nested-loop join driving cur.rows outer rows
// into an index on the inner base table's join column; it returns -1 when
// no usable index exists in cfg.
func (o *Optimizer) indexNLCost(a *sqlparse.Analysis, cfg *physical.Configuration, outerRows float64, inner relation, j sqlparse.JoinPredicate) float64 {
	var innerCol string
	switch inner.baseTable {
	case j.Left.Table:
		innerCol = j.Left.Column
	case j.Right.Table:
		innerCol = j.Right.Column
	default:
		return -1
	}
	t, ok := o.cat.Table(inner.baseTable)
	if !ok {
		return -1
	}
	for _, ix := range cfg.IndexesOn(inner.baseTable) {
		if ix.LeadColumn() != innerCol {
			continue
		}
		d := o.joinDistinct(j)
		matchRows := float64(t.Rows) / d
		if matchRows < 1 {
			matchRows = 1
		}
		perOuter := BTreeDescentCost + matchRows*CPUIndexTupleCost
		if !refReads(a, inner.baseTable).coveredBy(ix) {
			perOuter += matchRows * RandPageCost
		}
		return outerRows * perOuter
	}
	return -1
}
