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
	// joins can seek into them; slot is then its a.Tables index.
	baseTable string
	slot      int
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

// costSelect estimates the cost of a SELECT under the probe's
// configuration.
//
//physdes:zeroalloc
func (p *probe) costSelect() float64 {
	var rels [stackTables]relation
	var steps [stackTables]joinStep
	var words [stackTables + 1]uint64
	return p.planSelect(rels[:], steps[:], words[:]).cost
}

// planSelect evaluates a SELECT under the probe's configuration using the
// caller's scratch for the relations, join steps and table sets (heap
// slices replace any that are too small).
//
//physdes:zeroalloc
func (p *probe) planSelect(relBuf []relation, stepBuf []joinStep, wordBuf []uint64) selectPlan {
	a := p.a
	n := len(a.Tables)
	w := (n + 63) / 64
	sets := tableSets{words: scratch(wordBuf, (n+1)*w)[:(n+1)*w], w: w}
	clear(sets.words)
	rels := p.buildRelations(sets, scratch(relBuf, n))
	res, steps := p.joinRelations(sets, rels, scratch(stepBuf, n))
	plan := selectPlan{rels: rels, steps: steps, rows: res.rows}

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
			s := rels[0].slot
			ordered, ok := p.bestAccessOrdered(s, p.refReads(s), a.OrderBy)
			if ok && ordered.cost < res.cost+sortCost {
				res.cost = ordered.cost
				plan.eliminated, plan.ordered = true, ordered
			}
		}
		if !plan.eliminated {
			res.cost += sortCost
			plan.sorted, plan.sortCost = true, res.cost
		}
	}
	if a.HasAggregate {
		res.cost += res.rows * CPUOperatorCost
		plan.aggCost = res.cost
	}
	// Output the final rows.
	res.cost += res.rows * CPUTupleCost
	plan.cost = res.cost
	return plan
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
func (p *probe) buildRelations(sets tableSets, rels []relation) []relation {
	const claimed = 0
	a := p.a
	next := sets.w

	// Greedy view matching: consider views covering the most tables first,
	// ties by ID (cfg.Views is sorted by ID).
	views := p.cfg.Views()
	widest := 0
	for _, v := range views {
		widest = max(widest, len(v.Tables))
	}
	for size := widest; size > 0; size-- {
		for _, v := range views {
			if len(v.Tables) != size || !viewMatches(a, v, sets) {
				continue
			}
			rel := p.viewRelation(v)
			// Only take the view when it beats producing its tables directly.
			direct := 0.0
			for _, t := range v.Tables {
				s := tableIndex(a, t)
				direct += p.bestAccess(s, p.refReads(s)).cost
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
		ap := p.bestAccess(i, p.refReads(i))
		rel := relation{
			set:       next,
			first:     i,
			cost:      ap.cost,
			rows:      ap.rows,
			baseTable: t,
			slot:      i,
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
func viewMatches(a *sqlparse.Analysis, v *physical.View, sets tableSets) bool {
	if len(v.GroupBy) > 0 {
		return aggViewMatches(a, v, sets)
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
func aggViewMatches(a *sqlparse.Analysis, v *physical.View, sets tableSets) bool {
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
func (p *probe) viewRelation(v *physical.View) relation {
	a := p.a
	vRows := float64(v.EstimatedRows(p.o.cat))
	pages := float64(v.SizeBytes(p.o.cat)) / catalog.PageSize
	if pages < 1 {
		pages = 1
	}
	sel := 1.0
	for _, t := range v.Tables {
		sel *= p.slots[tableIndex(a, t)].sel
	}
	out := vRows * sel
	if len(v.GroupBy) > 0 && len(a.GroupBy) > 0 {
		// Rollup: the output cardinality is bounded by the query's own
		// grouping granularity.
		if groups := p.groupDistinct(); groups < out {
			out = groups
		}
	}
	if out < 1 {
		out = 1
	}
	cost := (pages*SeqPageCost + vRows*CPUTupleCost) *
		p.pathWobble(tableIndex(a, v.Tables[0]), v.PathKey())
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
func (p *probe) joinRelations(sets tableSets, rels []relation, steps []joinStep) (relation, []joinStep) {
	a := p.a
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
		ji := -1
		for i := 1; i < len(rels); i++ {
			if rels[i].joined {
				continue
			}
			if smallest < 0 {
				smallest = i
			}
			if ji = p.connecting(sets, cur.set, rels[i].set); ji >= 0 {
				idx, joinPred = i, &a.Joins[ji]
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
			d := p.joinDistinct(ji)
			outRows = cur.rows * next.rows / d

			// Merge join: the cheapest *ordered* access paths of both
			// sides (interesting-order arms), when both are base tables.
			if cur.baseTable != "" && next.baseTable != "" {
				var curKey, nextKey [1]sqlparse.OrderColumn
				curKey[0].Col.Column = p.joinColumnOf(ji, sets, cur.set)
				nextKey[0].Col.Column = p.joinColumnOf(ji, sets, next.set)
				curOrd, okC := p.bestAccessOrdered(cur.slot, p.refReads(cur.slot), curKey[:])
				nextOrd, okN := p.bestAccessOrdered(next.slot, p.refReads(next.slot), nextKey[:])
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
				if inner := p.indexNLCost(cur.rows, next, ji); inner >= 0 {
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

// connecting returns the index in a.Joins of a join predicate of the
// query linking the two table sets, or -1.
func (p *probe) connecting(sets tableSets, left, right int) int {
	for i, js := range p.joinSlot {
		l, r := int(js[0]), int(js[1])
		if (sets.has(left, l) && sets.has(right, r)) ||
			(sets.has(left, r) && sets.has(right, l)) {
			return i
		}
	}
	return -1
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

// joinColumnOf returns the column of join ji belonging to the relation
// covering the table set, or "" when the predicate does not touch it.
func (p *probe) joinColumnOf(ji int, sets tableSets, set int) string {
	j, js := &p.a.Joins[ji], p.joinSlot[ji]
	if sets.has(set, int(js[0])) {
		return j.Left.Column
	}
	if sets.has(set, int(js[1])) {
		return j.Right.Column
	}
	return ""
}

// indexNLCost costs an index nested-loop join driving outerRows outer
// rows into an index on the inner base table's column of join ji, taking
// the cheapest such index in the configuration, so the cost depends on the
// configuration's structure set and not on its order; it returns -1 when
// no usable index exists.
func (p *probe) indexNLCost(outerRows float64, inner relation, ji int) float64 {
	j := &p.a.Joins[ji]
	var innerCol string
	switch inner.baseTable {
	case j.Left.Table:
		innerCol = j.Left.Column
	case j.Right.Table:
		innerCol = j.Right.Column
	default:
		return -1
	}
	sp := &p.slots[inner.slot]
	if sp.t == nil {
		return -1
	}
	best := -1.0
	for _, ix := range sp.on {
		if ix.LeadColumn() != innerCol {
			continue
		}
		matchRows := float64(sp.t.Rows) / p.joinDistinct(ji)
		if matchRows < 1 {
			matchRows = 1
		}
		perOuter := BTreeDescentCost + matchRows*CPUIndexTupleCost
		if !p.refReads(inner.slot).coveredBy(ix) {
			perOuter += matchRows * RandPageCost
		}
		if c := outerRows * perOuter; best < 0 || c < best {
			best = c
		}
	}
	return best
}
