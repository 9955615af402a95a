package physical

import (
	"fmt"
	"slices"
	"sort"

	"physdes/internal/catalog"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
)

// CandidateOptions controls candidate-structure enumeration.
type CandidateOptions struct {
	// MaxKeyColumns caps composite index width (default 3).
	MaxKeyColumns int
	// MaxIncludeColumns caps covering-index include lists (default 6).
	MaxIncludeColumns int
	// Covering adds covering variants of the per-query indexes.
	Covering bool
	// Views adds two-table materialized join views.
	Views bool
	// Merged adds pairwise merges of same-table candidates (the classic
	// advisor step that trades one wider index for two narrow ones).
	Merged bool
}

func (o CandidateOptions) withDefaults() CandidateOptions {
	if o.MaxKeyColumns <= 0 {
		o.MaxKeyColumns = 3
	}
	if o.MaxIncludeColumns <= 0 {
		o.MaxIncludeColumns = 6
	}
	return o
}

// EnumerateCandidates derives the candidate physical design structures a
// tuning tool would consider for the analyzed workload: per-query single and
// composite indexes on sargable predicate columns, join-column indexes,
// order/group-by indexes, optional covering variants and two-table join
// views. The result is de-duplicated and sorted by ID, so enumeration is
// deterministic. Each distinct enumeration shape is processed once: the
// statements of one template usually share it.
func EnumerateCandidates(cat *catalog.Catalog, analyses []*sqlparse.Analysis, opts CandidateOptions) []Structure {
	opts = opts.withDefaults()
	seen := make(map[string]Structure)
	put := func(s Structure) {
		if _, ok := seen[s.ID()]; !ok {
			seen[s.ID()] = s
		}
	}

	for _, a := range distinctShapes(analyses) {
		perTableEq := make(map[string][]string)
		perTableRange := make(map[string][]string)
		for _, p := range a.Preds {
			if p.InDisjunction {
				continue
			}
			switch p.Kind {
			case sqlparse.PredEq, sqlparse.PredIn:
				perTableEq[p.Col.Table] = appendUnique(perTableEq[p.Col.Table], p.Col.Column)
			case sqlparse.PredRange:
				perTableRange[p.Col.Table] = appendUnique(perTableRange[p.Col.Table], p.Col.Column)
			}
			// Single-column index for every sargable predicate column.
			if p.Kind != sqlparse.PredNeq && p.Kind != sqlparse.PredLike {
				put(NewIndex(p.Col.Table, []string{p.Col.Column}))
			}
		}

		// Composite per-query index per table: equality columns first
		// (most selective first), then one range column.
		tables := make([]string, 0, len(perTableEq)+len(perTableRange))
		for t := range perTableEq {
			tables = append(tables, t)
		}
		for t := range perTableRange {
			if _, dup := perTableEq[t]; !dup {
				tables = append(tables, t)
			}
		}
		sort.Strings(tables)
		for _, t := range tables {
			key := sortBySelectivity(cat, t, perTableEq[t])
			if len(key) < opts.MaxKeyColumns {
				for _, rc := range sortBySelectivity(cat, t, perTableRange[t]) {
					key = appendUnique(key, rc)
					break // at most one trailing range column is useful
				}
			}
			if len(key) > opts.MaxKeyColumns {
				key = key[:opts.MaxKeyColumns]
			}
			if len(key) == 0 {
				continue
			}
			put(NewIndex(t, key))
			if opts.Covering {
				inc := referencedOn(a, t)
				if len(inc) > opts.MaxIncludeColumns {
					inc = inc[:opts.MaxIncludeColumns]
				}
				put(NewIndex(t, key, inc...))
			}
		}

		// Join-column indexes.
		for _, j := range a.Joins {
			put(NewIndex(j.Left.Table, []string{j.Left.Column}))
			put(NewIndex(j.Right.Table, []string{j.Right.Column}))
		}

		// ORDER BY / GROUP BY indexes (per table, in clause order).
		orderPerTable := make(map[string][]string)
		for _, o := range a.OrderBy {
			orderPerTable[o.Col.Table] = appendUnique(orderPerTable[o.Col.Table], o.Col.Column)
		}
		for _, g := range a.GroupBy {
			orderPerTable[g.Table] = appendUnique(orderPerTable[g.Table], g.Column)
		}
		oTables := make([]string, 0, len(orderPerTable))
		for t := range orderPerTable {
			oTables = append(oTables, t)
		}
		sort.Strings(oTables)
		for _, t := range oTables {
			key := orderPerTable[t]
			if len(key) > opts.MaxKeyColumns {
				key = key[:opts.MaxKeyColumns]
			}
			put(NewIndex(t, key))
		}

		// Two-table join views projecting the query's referenced columns.
		if opts.Views {
			for _, j := range a.Joins {
				cols := referencedTC(a, j.Left.Table)
				cols = append(cols, referencedTC(a, j.Right.Table)...)
				if len(cols) == 0 {
					cols = []sqlparse.TableColumn{j.Left, j.Right}
				}
				put(NewView(
					[]string{j.Left.Table, j.Right.Table},
					[]sqlparse.JoinPredicate{j},
					cols, nil,
				))
			}

			// An aggregate (indexed) view answering the query's GROUP BY
			// exactly: dimensions are the grouping columns plus every
			// sargable predicate column (so filters still apply after
			// aggregation); measures are the remaining referenced columns.
			if len(a.GroupBy) > 0 && !a.HasDisjunction && len(a.Tables) <= 3 {
				dims := append([]sqlparse.TableColumn(nil), a.GroupBy...)
				dimSet := make(map[sqlparse.TableColumn]bool, len(dims))
				for _, d := range dims {
					dimSet[d] = true
				}
				usable := true
				for _, p := range a.Preds {
					if p.Kind == sqlparse.PredNeq || p.Kind == sqlparse.PredLike {
						usable = false
						break
					}
					if !dimSet[p.Col] {
						dims = append(dims, p.Col)
						dimSet[p.Col] = true
					}
				}
				if usable {
					put(NewView(a.Tables, a.Joins, a.Referenced, dims))
				}
			}
		}
	}

	if opts.Merged {
		addMergedIndexes(seen, put, opts)
	}

	out := make([]Structure, 0, len(seen))
	//physdes:orderinsensitive collected in map order but sorted by ID before return
	for _, s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	for _, s := range out {
		sizeUnder(s, cat)
	}
	return out
}

// distinctShapes returns the first analysis of each distinct enumeration
// shape, in input order. Two analyses have one shape when everything
// enumeration reads from them is equal: the predicates' (column, kind,
// disjunction) lists, joins, group-by and order-by columns, referenced
// columns, tables and HasDisjunction. Enumeration over the result is
// therefore identical to enumeration over every analysis. Shapes are
// bucketed by a hash and told apart by an exact comparison.
func distinctShapes(analyses []*sqlparse.Analysis) []*sqlparse.Analysis {
	buckets := make(map[uint64][]*sqlparse.Analysis)
	var out []*sqlparse.Analysis
	for _, a := range analyses {
		h := shapeHash(a)
		seen := false
		for _, b := range buckets[h] {
			if sameShape(a, b) {
				seen = true
				break
			}
		}
		if !seen {
			buckets[h] = append(buckets[h], a)
			out = append(out, a)
		}
	}
	return out
}

// shapeHash is an FNV-1a hash of an analysis's enumeration shape.
func shapeHash(a *sqlparse.Analysis) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		h = (h ^ 0xff) * prime // terminator: "ab"+"c" ≠ "a"+"bc"
	}
	num := func(n int) { h = (h ^ uint64(n)) * prime }
	col := func(c sqlparse.TableColumn) { str(c.Table); str(c.Column) }
	num(len(a.Preds))
	for _, p := range a.Preds {
		col(p.Col)
		num(int(p.Kind))
		if p.InDisjunction {
			num(1)
		}
	}
	num(len(a.Joins))
	for _, j := range a.Joins {
		col(j.Left)
		col(j.Right)
	}
	num(len(a.GroupBy))
	for _, g := range a.GroupBy {
		col(g)
	}
	num(len(a.OrderBy))
	for _, o := range a.OrderBy {
		col(o.Col)
	}
	num(len(a.Referenced))
	for _, c := range a.Referenced {
		col(c)
	}
	num(len(a.Tables))
	for _, t := range a.Tables {
		str(t)
	}
	if a.HasDisjunction {
		num(1)
	}
	return h
}

// sameShape reports whether a and b have one enumeration shape.
func sameShape(a, b *sqlparse.Analysis) bool {
	if len(a.Preds) != len(b.Preds) || len(a.OrderBy) != len(b.OrderBy) ||
		a.HasDisjunction != b.HasDisjunction {
		return false
	}
	for i := range a.Preds {
		p, q := &a.Preds[i], &b.Preds[i]
		if p.Col != q.Col || p.Kind != q.Kind || p.InDisjunction != q.InDisjunction {
			return false
		}
	}
	for i := range a.OrderBy {
		if a.OrderBy[i].Col != b.OrderBy[i].Col {
			return false
		}
	}
	return slices.Equal(a.Joins, b.Joins) && slices.Equal(a.GroupBy, b.GroupBy) &&
		slices.Equal(a.Referenced, b.Referenced) && slices.Equal(a.Tables, b.Tables)
}

// addMergedIndexes merges pairs of same-table index candidates: the merged
// key is the first key followed by the second's unseen columns, includes
// are unioned, and the width caps still apply. One pass over the pairs is
// enough — advisors iterate, but the second-order merges rarely earn their
// storage.
func addMergedIndexes(seen map[string]Structure, put func(Structure), opts CandidateOptions) {
	byTable := make(map[string][]*Index)
	for _, s := range seen {
		if ix, ok := s.(*Index); ok {
			byTable[ix.Table] = append(byTable[ix.Table], ix)
		}
	}
	for table, ixs := range byTable {
		sort.Slice(ixs, func(i, j int) bool { return ixs[i].ID() < ixs[j].ID() })
		for i := 0; i < len(ixs); i++ {
			for j := i + 1; j < len(ixs); j++ {
				key := append([]string(nil), ixs[i].Key...)
				for _, c := range ixs[j].Key {
					key = appendUnique(key, c)
				}
				if len(key) > opts.MaxKeyColumns || len(key) == len(ixs[i].Key) {
					continue
				}
				inc := append(append([]string(nil), ixs[i].Include...), ixs[j].Include...)
				if len(inc) > opts.MaxIncludeColumns {
					inc = inc[:opts.MaxIncludeColumns]
				}
				put(NewIndex(table, key, inc...))
			}
		}
	}
}

func appendUnique(xs []string, v string) []string {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}

// sortBySelectivity orders columns most-selective (highest distinct count)
// first — the standard composite-key ordering heuristic.
func sortBySelectivity(cat *catalog.Catalog, table string, cols []string) []string {
	out := append([]string(nil), cols...)
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := 0, 0
		if c, ok := cat.ColumnStats(table, out[i]); ok {
			di = c.Distinct
		}
		if c, ok := cat.ColumnStats(table, out[j]); ok {
			dj = c.Distinct
		}
		if di != dj {
			return di > dj
		}
		return out[i] < out[j]
	})
	return out
}

func referencedOn(a *sqlparse.Analysis, table string) []string {
	var out []string
	for _, tc := range a.Referenced {
		if tc.Table == table {
			out = append(out, tc.Column)
		}
	}
	return out
}

func referencedTC(a *sqlparse.Analysis, table string) []sqlparse.TableColumn {
	var out []sqlparse.TableColumn
	for _, tc := range a.Referenced {
		if tc.Table == table {
			out = append(out, tc)
		}
	}
	return out
}

// IndexesOnly filters a candidate list down to indexes — the paper's
// "index-only" configurations contain no materialized views.
func IndexesOnly(candidates []Structure) []Structure {
	var out []Structure
	for _, s := range candidates {
		if _, ok := s.(*Index); ok {
			out = append(out, s)
		}
	}
	return out
}

// SpaceOptions controls configuration-space generation.
type SpaceOptions struct {
	// MinStructures/MaxStructures bound each configuration's size
	// (defaults 3 and 12).
	MinStructures, MaxStructures int
	// BudgetBytes, when positive, drops structures from a configuration
	// until its footprint fits.
	BudgetBytes int64
}

func (o SpaceOptions) withDefaults() SpaceOptions {
	if o.MinStructures <= 0 {
		o.MinStructures = 3
	}
	if o.MaxStructures <= 0 {
		o.MaxStructures = 12
	}
	if o.MaxStructures < o.MinStructures {
		o.MaxStructures = o.MinStructures
	}
	return o
}

// GenerateSpace draws k distinct configurations from the candidate set —
// the stand-in for the candidate configurations "collected from a
// commercial physical design tool" in Section 7.2. Configurations are
// random subsets of the candidates within the size bounds; drawing is
// deterministic in rng.
func GenerateSpace(cat *catalog.Catalog, candidates []Structure, k int, rng *stats.RNG, opts SpaceOptions) []*Configuration {
	opts = opts.withDefaults()
	if len(candidates) == 0 || k <= 0 {
		return nil
	}
	seen := make(map[string]bool)
	out := make([]*Configuration, 0, k)
	maxAttempts := k * 50
	for attempt := 0; len(out) < k && attempt < maxAttempts; attempt++ {
		span := opts.MaxStructures - opts.MinStructures + 1
		m := opts.MinStructures + rng.Intn(span)
		if m > len(candidates) {
			m = len(candidates)
		}
		perm := rng.Perm(len(candidates))
		chosen := make([]Structure, 0, m)
		var size int64
		for _, idx := range perm {
			if len(chosen) == m {
				break
			}
			s := candidates[idx]
			if opts.BudgetBytes > 0 {
				sz := s.SizeBytes(cat)
				if size+sz > opts.BudgetBytes && len(chosen) > 0 {
					continue
				}
				size += sz
			}
			chosen = append(chosen, s)
		}
		cfg := NewConfiguration(fmt.Sprintf("C%d", len(out)+1), chosen...)
		fp := cfg.Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		out = append(out, cfg)
	}
	return out
}
