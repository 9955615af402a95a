// Package workload models query workloads: statements with template
// identities (Section 5's signatures/skeletons), workload containers with
// per-template membership, QGEN-style TPC-D and CRM trace generators, a
// file-backed workload store supporting the paper's random-permutation
// sampling, and cost-matrix precomputation for the Monte-Carlo harness.
package workload

import (
	"fmt"
	"slices"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/sqlparse"
)

// Query is one workload statement.
type Query struct {
	// ID is the statement's position in the workload (0-based).
	ID int
	// SQL is the statement text.
	SQL string
	// Analysis is the parsed statement's structural summary.
	Analysis *sqlparse.Analysis
	// Template identifies the statement's template.
	Template sqlparse.TemplateID
}

// TemplateInfo aggregates a template's members within a workload.
type TemplateInfo struct {
	ID  sqlparse.TemplateID
	SQL string
	// Members are the query IDs sharing the template, ascending.
	Members []int
}

// Partition is the workload's split into templates in the dense form the
// stratification code reads: Of maps each query to its template index,
// Members maps each template to its queries in ascending order. A
// workload's partition is shared by every Select over it, read-only.
type Partition struct {
	Of      []int
	Members [][]int
}

// NewPartition builds the partition of a dense template index: query q
// belongs to template of[q], and there are max(of)+1 templates.
func NewPartition(of []int) Partition {
	count := 0
	for _, t := range of {
		count = max(count, t+1)
	}
	members := make([][]int, count)
	for q, t := range of {
		members[t] = append(members[t], q)
	}
	return Partition{Of: of, Members: members}
}

// Workload is an ordered collection of queries with template bookkeeping.
type Workload struct {
	Queries []*Query
	infos   []*TemplateInfo             // templates in first-appearance order
	dense   map[sqlparse.TemplateID]int // template ID → index into infos
	part    Partition
}

// New assembles a workload from queries, computing template membership
// and the dense partition (templates in first-appearance order).
func New(queries []*Query) *Workload {
	w := &Workload{
		Queries: queries,
		dense:   make(map[sqlparse.TemplateID]int),
		part:    Partition{Of: make([]int, len(queries))},
	}
	for i, q := range queries {
		t, ok := w.dense[q.Template]
		if !ok {
			t = len(w.infos)
			w.dense[q.Template] = t
			w.infos = append(w.infos, &TemplateInfo{ID: q.Template})
		}
		w.infos[t].Members = append(w.infos[t].Members, q.ID)
		w.part.Of[i] = t
	}
	w.part.Members = make([][]int, len(w.infos))
	for t, ti := range w.infos {
		w.part.Members[t] = ti.Members
	}
	return w
}

// Parse builds a workload from raw SQL statements, parsing and analyzing
// each against the catalog and binding its predicate selectivities to the
// catalog's statistics (optimizer.Bind).
//
// Work that depends only on a statement's shape is done once per shape.
// One lexer pass gives each statement's exact signature (its tokens with
// literal text left out). The first statement with a signature takes the
// full path — sqlparse.Parse, Analyze, Template — and records its shape;
// every later one copies that statement's analysis (sharing its shape's
// bound stamps), patches in its own literals and is bound. The signature
// table lives for this call only.
func Parse(cat *catalog.Catalog, sqls []string) (*Workload, error) {
	queries := make([]*Query, len(sqls))
	templateSQL := make(map[sqlparse.TemplateID]string)
	shapes := make(map[string]*shape)
	var sig []byte
	var lits []sqlparse.Token
	for i, src := range sqls {
		var sigErr error
		sig, lits, sigErr = sqlparse.AppendSignature(sig[:0], lits[:0], src)
		if sh := shapes[string(sig)]; sigErr == nil && sh != nil {
			if a, ok := sh.instantiate(lits); ok {
				optimizer.Bind(cat, a)
				queries[i] = &Query{ID: i, SQL: src, Analysis: a, Template: sh.template}
				continue
			}
		}
		stmt, err := sqlparse.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("workload: statement %d: %w", i, err)
		}
		a, err := sqlparse.Analyze(stmt, cat.Resolve)
		if err != nil {
			return nil, fmt.Errorf("workload: statement %d: %w", i, err)
		}
		tSQL, tid := sqlparse.Template(stmt)
		if _, seen := templateSQL[tid]; !seen {
			templateSQL[tid] = tSQL
		}
		// Bound first, so the shape's skeleton carries the shape's stamps
		// and binding a later statement of the shape allocates nothing.
		optimizer.Bind(cat, a)
		// The parse succeeded, so the lexer did too and sig is complete.
		sh, err := newShape(src, lits, a, tid, cat.Resolve)
		if err != nil {
			return nil, fmt.Errorf("workload: statement %d: %w", i, err)
		}
		shapes[string(sig)] = sh
		queries[i] = &Query{ID: i, SQL: src, Analysis: a, Template: tid}
	}
	w := New(queries)
	for tid, tSQL := range templateSQL {
		w.infos[w.dense[tid]].SQL = tSQL
	}
	return w, nil
}

// Size returns the number of statements (the paper's N).
func (w *Workload) Size() int { return len(w.Queries) }

// Analyses returns each statement's analysis, in workload order.
func (w *Workload) Analyses() []*sqlparse.Analysis {
	out := make([]*sqlparse.Analysis, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = q.Analysis
	}
	return out
}

// NumTemplates returns the number of distinct templates (the paper's T).
func (w *Workload) NumTemplates() int { return len(w.infos) }

// Templates returns template infos in first-appearance order.
func (w *Workload) Templates() []*TemplateInfo { return slices.Clone(w.infos) }

// Template returns the info for one template ID.
func (w *Workload) Template(id sqlparse.TemplateID) (*TemplateInfo, bool) {
	t, ok := w.dense[id]
	if !ok {
		return nil, false
	}
	return w.infos[t], true
}

// Partition returns the workload's template partition, templates in
// first-appearance order (Members[t] is Templates()[t].Members). It is
// built once by New and shared: callers must not modify it.
func (w *Workload) Partition() Partition { return w.part }

// Subset returns a new workload of the queries with the given IDs (in the
// given order), renumbered from 0. Template bookkeeping is recomputed.
func (w *Workload) Subset(ids []int) *Workload {
	qs := make([]*Query, 0, len(ids))
	for _, id := range ids {
		orig := w.Queries[id]
		cp := *orig
		cp.ID = len(qs)
		qs = append(qs, &cp)
	}
	return New(qs)
}

// KindCounts returns how many statements of each kind the workload has,
// keyed by the kind's String() — a reporting helper.
func (w *Workload) KindCounts() map[string]int {
	out := make(map[string]int)
	for _, q := range w.Queries {
		out[q.Analysis.Kind.String()]++
	}
	return out
}
