// Package workload models query workloads: statements with template
// identities (Section 5's signatures/skeletons), workload containers with
// per-template membership, QGEN-style TPC-D and CRM trace generators, a
// file-backed workload store supporting the paper's random-permutation
// sampling, and cost-matrix precomputation for the Monte-Carlo harness.
package workload

import (
	"fmt"
	"sort"

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

// Workload is an ordered collection of queries with template bookkeeping.
type Workload struct {
	Queries   []*Query
	templates map[sqlparse.TemplateID]*TemplateInfo
	order     []sqlparse.TemplateID // deterministic template order
}

// New assembles a workload from queries, computing template membership.
func New(queries []*Query) *Workload {
	w := &Workload{
		Queries:   queries,
		templates: make(map[sqlparse.TemplateID]*TemplateInfo),
	}
	for _, q := range queries {
		ti, ok := w.templates[q.Template]
		if !ok {
			ti = &TemplateInfo{ID: q.Template}
			w.templates[q.Template] = ti
			w.order = append(w.order, q.Template)
		}
		ti.Members = append(ti.Members, q.ID)
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
// every later one copies that statement's analysis, patches in its own
// literals and is bound. The signature table lives for this call only.
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
		// The parse succeeded, so the lexer did too and sig is complete.
		sh, err := newShape(src, lits, a, tid, cat.Resolve)
		if err != nil {
			return nil, fmt.Errorf("workload: statement %d: %w", i, err)
		}
		shapes[string(sig)] = sh
		optimizer.Bind(cat, a)
		queries[i] = &Query{ID: i, SQL: src, Analysis: a, Template: tid}
	}
	w := New(queries)
	for tid, tSQL := range templateSQL {
		w.templates[tid].SQL = tSQL
	}
	return w, nil
}

// Size returns the number of statements (the paper's N).
func (w *Workload) Size() int { return len(w.Queries) }

// NumTemplates returns the number of distinct templates (the paper's T).
func (w *Workload) NumTemplates() int { return len(w.templates) }

// Templates returns template infos in first-appearance order.
func (w *Workload) Templates() []*TemplateInfo {
	out := make([]*TemplateInfo, 0, len(w.order))
	for _, id := range w.order {
		out = append(out, w.templates[id])
	}
	return out
}

// Template returns the info for one template ID.
func (w *Workload) Template(id sqlparse.TemplateID) (*TemplateInfo, bool) {
	ti, ok := w.templates[id]
	return ti, ok
}

// TemplateIndexOf returns a dense index in [0, NumTemplates) for each
// query, in first-appearance template order — the representation the
// stratification code operates on.
func (w *Workload) TemplateIndexOf() []int {
	idx := make(map[sqlparse.TemplateID]int, len(w.order))
	for i, id := range w.order {
		idx[id] = i
	}
	out := make([]int, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = idx[q.Template]
	}
	return out
}

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

// TemplateSizes returns the member counts per template, sorted descending —
// used by compression baselines and reports.
func (w *Workload) TemplateSizes() []int {
	var out []int
	for _, ti := range w.templates {
		out = append(out, len(ti.Members))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
