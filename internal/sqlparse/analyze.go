package sqlparse

import (
	"fmt"
	"sort"
	"strings"
)

// StmtKind classifies a statement for analysis consumers.
type StmtKind int

// Statement kinds.
const (
	KindSelect StmtKind = iota
	KindInsert
	KindUpdate
	KindDelete
)

func (k StmtKind) String() string {
	switch k {
	case KindSelect:
		return "SELECT"
	case KindInsert:
		return "INSERT"
	case KindUpdate:
		return "UPDATE"
	case KindDelete:
		return "DELETE"
	}
	return fmt.Sprintf("StmtKind(%d)", int(k))
}

// IsUpdate reports whether the kind modifies data (the paper's terminology
// folds INSERT and DELETE into "UPDATE statements").
func (k StmtKind) IsUpdate() bool { return k != KindSelect }

// PredKind classifies a single-column predicate by how an index can use it.
type PredKind int

// Predicate kinds.
const (
	PredEq     PredKind = iota // col = literal
	PredRange                  // col < / <= / > / >= literal, or BETWEEN
	PredIn                     // col IN (…)
	PredLike                   // col LIKE pattern
	PredNeq                    // col <> literal (residual only)
	PredIsNull                 // col IS [NOT] NULL
)

func (k PredKind) String() string {
	switch k {
	case PredEq:
		return "eq"
	case PredRange:
		return "range"
	case PredIn:
		return "in"
	case PredLike:
		return "like"
	case PredNeq:
		return "neq"
	case PredIsNull:
		return "isnull"
	}
	return fmt.Sprintf("PredKind(%d)", int(k))
}

// TableColumn names a column of a resolved base table.
type TableColumn struct {
	Table  string
	Column string
}

// String returns "table.column".
func (tc TableColumn) String() string { return tc.Table + "." + tc.Column }

// ColumnPredicate is one sargable single-column predicate found in a WHERE
// clause (or the conjunctive part of one).
type ColumnPredicate struct {
	Col  TableColumn
	Kind PredKind

	// EqValue holds the literal of an equality (number or raw string text).
	EqValue Literal
	// Lo/Hi hold numeric range endpoints when known; HasLo/HasHi say which
	// side is bounded. BETWEEN sets both.
	Lo, Hi       float64
	HasLo, HasHi bool
	// InDisjunction marks predicates that sit under an OR or NOT: they are
	// not usable for index seeks but still matter for selectivity. It sits
	// beside the other flags so the three share one word.
	InDisjunction bool
	// InCount is the number of IN-list items.
	InCount int
	// LikePattern is the raw pattern (with quotes) for LIKE.
	LikePattern string
	// Bound is the predicate's selectivity, estimated once when the
	// statement was parsed into a workload; the zero value means unbound.
	Bound BoundSelectivity
}

// BoundSelectivity is a predicate selectivity stamped on the statement
// that owns the predicate. Catalog identifies the statistics it was
// estimated from: a reader costing against any other catalog must
// estimate afresh.
type BoundSelectivity struct {
	Catalog any
	Sel     float64
}

// JoinPredicate is an equality between columns of two different tables.
type JoinPredicate struct {
	Left, Right TableColumn
}

// OrderColumn is one resolved ORDER BY column.
type OrderColumn struct {
	Col  TableColumn
	Desc bool
}

// Analysis is the structural summary of a statement consumed by the
// what-if optimizer and by candidate-structure enumeration.
//
// An analysis is read-only once workload.Parse returns it. Statements with
// the same signature (see AppendSignature) may share every slice of their
// analyses except Preds, which each statement owns.
type Analysis struct {
	Kind   StmtKind
	Tables []string // distinct base table names, sorted

	// Preds are the single-column predicates (sargable ones first).
	Preds []ColumnPredicate
	// Joins are equality join predicates between base tables.
	Joins []JoinPredicate

	GroupBy []TableColumn
	OrderBy []OrderColumn
	// Referenced lists every column referenced anywhere, per table, used
	// for covering-index checks. Sorted, de-duplicated.
	Referenced []TableColumn

	Distinct       bool
	HasAggregate   bool
	HasHaving      bool
	SelectStar     bool
	HasDisjunction bool

	// For INSERT/UPDATE/DELETE:
	ModifiedTable string
	ModifiedCols  []string // columns assigned (UPDATE) or inserted (INSERT)
	// TopK is the k of UPDATE TOP(k); 0 when absent.
	TopK float64
}

// Resolver maps an unqualified column name to its owning base table. The
// catalog supplies one; schemas in this repository use per-table column
// prefixes (TPC style), so resolution is unambiguous.
type Resolver func(column string) (table string, ok bool)

// Analyze computes the Analysis of a parsed statement. Aliases declared in
// the FROM clause are resolved to base table names; unqualified columns are
// resolved through resolve. Unresolvable columns are an error: the
// workload and schema must agree.
func Analyze(stmt Statement, resolve Resolver) (*Analysis, error) {
	a := &Analysis{}
	switch s := stmt.(type) {
	case *SelectStmt:
		return analyzeSelect(s, resolve)
	case *InsertStmt:
		a.Kind = KindInsert
		a.Tables = []string{s.Table}
		a.ModifiedTable = s.Table
		a.ModifiedCols = append(a.ModifiedCols, s.Columns...)
		sort.Strings(a.ModifiedCols)
		return a, nil
	case *UpdateStmt:
		a.Kind = KindUpdate
		a.Tables = []string{s.Table}
		a.ModifiedTable = s.Table
		for _, asg := range s.Set {
			a.ModifiedCols = append(a.ModifiedCols, asg.Column.Column)
		}
		sort.Strings(a.ModifiedCols)
		if s.Top != nil {
			a.TopK = s.Top.Num
		}
		env := map[string]string{s.Table: s.Table}
		if err := collectBool(s.Where, env, resolve, a, false); err != nil {
			return nil, err
		}
		finishReferenced(a)
		return a, nil
	case *DeleteStmt:
		a.Kind = KindDelete
		a.Tables = []string{s.Table}
		a.ModifiedTable = s.Table
		env := map[string]string{s.Table: s.Table}
		if err := collectBool(s.Where, env, resolve, a, false); err != nil {
			return nil, err
		}
		finishReferenced(a)
		return a, nil
	}
	return nil, fmt.Errorf("sqlparse: unknown statement type %T", stmt)
}

func analyzeSelect(s *SelectStmt, resolve Resolver) (*Analysis, error) {
	a := &Analysis{Kind: KindSelect, Distinct: s.Distinct, HasHaving: s.Having != nil}

	// Build the binding environment: alias (or table name) → base table.
	env := make(map[string]string, len(s.From))
	seen := make(map[string]bool)
	for _, t := range s.From {
		env[t.Binding()] = t.Name
		if !seen[t.Name] {
			seen[t.Name] = true
			a.Tables = append(a.Tables, t.Name)
		}
	}
	sort.Strings(a.Tables)

	for _, it := range s.Items {
		if it.Star {
			a.SelectStar = true
			continue
		}
		if err := collectScalar(it.Expr, env, resolve, a); err != nil {
			return nil, err
		}
	}

	var where Expr
	for _, on := range s.JoinOn {
		if where == nil {
			where = on
		} else {
			where = &BinaryExpr{Op: "AND", Left: where, Right: on}
		}
	}
	if s.Where != nil {
		if where == nil {
			where = s.Where
		} else {
			where = &BinaryExpr{Op: "AND", Left: where, Right: s.Where}
		}
	}
	if err := collectBool(where, env, resolve, a, false); err != nil {
		return nil, err
	}

	for _, g := range s.GroupBy {
		tc, ok, err := resolveColumnExpr(g, env, resolve)
		if err != nil {
			return nil, err
		}
		if ok {
			a.GroupBy = append(a.GroupBy, tc)
			addRef(a, tc)
		} else if err := collectScalar(g, env, resolve, a); err != nil {
			return nil, err
		}
	}
	if s.Having != nil {
		if err := collectBool(s.Having, env, resolve, a, true); err != nil {
			return nil, err
		}
	}
	for _, o := range s.OrderBy {
		tc, ok, err := resolveColumnExpr(o.Expr, env, resolve)
		if err != nil {
			return nil, err
		}
		if ok {
			a.OrderBy = append(a.OrderBy, OrderColumn{Col: tc, Desc: o.Desc})
			addRef(a, tc)
		} else if err := collectScalar(o.Expr, env, resolve, a); err != nil {
			return nil, err
		}
	}

	finishReferenced(a)
	return a, nil
}

// resolveColumn maps a ColumnRef to a base TableColumn.
func resolveColumn(c *ColumnRef, env map[string]string, resolve Resolver) (TableColumn, error) {
	if c.Table != "" {
		base, ok := env[c.Table]
		if !ok {
			// Qualifier not bound in FROM; accept it as a base table name
			// (UPDATE/DELETE have no FROM bindings beyond their target).
			base = c.Table
		}
		return TableColumn{Table: base, Column: c.Column}, nil
	}
	if len(env) == 1 {
		for _, base := range env {
			return TableColumn{Table: base, Column: c.Column}, nil
		}
	}
	if resolve != nil {
		if t, ok := resolve(c.Column); ok {
			return TableColumn{Table: t, Column: c.Column}, nil
		}
	}
	return TableColumn{}, fmt.Errorf("sqlparse: cannot resolve column %q", c.Column)
}

// resolveColumnExpr returns (tc, true, nil) when e is a plain column
// reference.
func resolveColumnExpr(e Expr, env map[string]string, resolve Resolver) (TableColumn, bool, error) {
	c, ok := e.(*ColumnRef)
	if !ok {
		return TableColumn{}, false, nil
	}
	tc, err := resolveColumn(c, env, resolve)
	if err != nil {
		return TableColumn{}, false, err
	}
	return tc, true, nil
}

func addRef(a *Analysis, tc TableColumn) {
	a.Referenced = append(a.Referenced, tc)
}

func finishReferenced(a *Analysis) {
	sort.Slice(a.Referenced, func(i, j int) bool {
		if a.Referenced[i].Table != a.Referenced[j].Table {
			return a.Referenced[i].Table < a.Referenced[j].Table
		}
		return a.Referenced[i].Column < a.Referenced[j].Column
	})
	out := a.Referenced[:0]
	var prev TableColumn
	for i, tc := range a.Referenced {
		if i == 0 || tc != prev {
			out = append(out, tc)
			prev = tc
		}
	}
	a.Referenced = out
}

// collectScalar records column references (and aggregate flags) of a scalar
// expression.
func collectScalar(e Expr, env map[string]string, resolve Resolver, a *Analysis) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *Literal:
		return nil
	case *ColumnRef:
		tc, err := resolveColumn(x, env, resolve)
		if err != nil {
			return err
		}
		addRef(a, tc)
		return nil
	case *BinaryExpr:
		if err := collectScalar(x.Left, env, resolve, a); err != nil {
			return err
		}
		return collectScalar(x.Right, env, resolve, a)
	case *FuncCall:
		a.HasAggregate = true
		for _, arg := range x.Args {
			if err := collectScalar(arg, env, resolve, a); err != nil {
				return err
			}
		}
		return nil
	case *NotExpr:
		return collectScalar(x.Inner, env, resolve, a)
	}
	return fmt.Errorf("sqlparse: unexpected expression %T in scalar context", e)
}

// collectBool walks a boolean expression, extracting sargable single-column
// predicates from the top-level conjunction and join equalities. disjunct
// marks that the walk is inside an OR/NOT/HAVING context, where predicates
// are residual (not index-seekable).
func collectBool(e Expr, env map[string]string, resolve Resolver, a *Analysis, disjunct bool) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *BinaryExpr:
		switch x.Op {
		case "AND":
			if err := collectBool(x.Left, env, resolve, a, disjunct); err != nil {
				return err
			}
			return collectBool(x.Right, env, resolve, a, disjunct)
		case "OR":
			a.HasDisjunction = true
			if err := collectBool(x.Left, env, resolve, a, true); err != nil {
				return err
			}
			return collectBool(x.Right, env, resolve, a, true)
		case "=", "<>", "<", "<=", ">", ">=":
			return collectComparison(x, env, resolve, a, disjunct)
		case "LIKE":
			col, okCol := x.Left.(*ColumnRef)
			lit, okLit := x.Right.(*Literal)
			if okCol && okLit {
				tc, err := resolveColumn(col, env, resolve)
				if err != nil {
					return err
				}
				addRef(a, tc)
				a.Preds = append(a.Preds, ColumnPredicate{
					Col: tc, Kind: PredLike, LikePattern: lit.Str, InDisjunction: disjunct,
				})
				return nil
			}
			if err := collectScalar(x.Left, env, resolve, a); err != nil {
				return err
			}
			return collectScalar(x.Right, env, resolve, a)
		default:
			// Arithmetic in boolean position (e.g. inside HAVING):
			// record references only.
			if err := collectScalar(x.Left, env, resolve, a); err != nil {
				return err
			}
			return collectScalar(x.Right, env, resolve, a)
		}
	case *NotExpr:
		a.HasDisjunction = true
		return collectBool(x.Inner, env, resolve, a, true)
	case *BetweenExpr:
		col, okCol := x.Operand.(*ColumnRef)
		lo, okLo := x.Lo.(*Literal)
		hi, okHi := x.Hi.(*Literal)
		if okCol {
			tc, err := resolveColumn(col, env, resolve)
			if err != nil {
				return err
			}
			addRef(a, tc)
			p := ColumnPredicate{Col: tc, Kind: PredRange, InDisjunction: disjunct}
			if okLo && lo.Kind == LitNumber {
				p.Lo, p.HasLo = lo.Num, true
			}
			if okHi && hi.Kind == LitNumber {
				p.Hi, p.HasHi = hi.Num, true
			}
			a.Preds = append(a.Preds, p)
			return nil
		}
		if err := collectScalar(x.Operand, env, resolve, a); err != nil {
			return err
		}
		if err := collectScalar(x.Lo, env, resolve, a); err != nil {
			return err
		}
		return collectScalar(x.Hi, env, resolve, a)
	case *InExpr:
		col, okCol := x.Operand.(*ColumnRef)
		if okCol {
			tc, err := resolveColumn(col, env, resolve)
			if err != nil {
				return err
			}
			addRef(a, tc)
			a.Preds = append(a.Preds, ColumnPredicate{
				Col: tc, Kind: PredIn, InCount: len(x.Items), InDisjunction: disjunct,
			})
			for _, it := range x.Items {
				if err := collectScalar(it, env, resolve, a); err != nil {
					return err
				}
			}
			return nil
		}
		if err := collectScalar(x.Operand, env, resolve, a); err != nil {
			return err
		}
		for _, it := range x.Items {
			if err := collectScalar(it, env, resolve, a); err != nil {
				return err
			}
		}
		return nil
	case *IsNullExpr:
		col, okCol := x.Operand.(*ColumnRef)
		if okCol {
			tc, err := resolveColumn(col, env, resolve)
			if err != nil {
				return err
			}
			addRef(a, tc)
			a.Preds = append(a.Preds, ColumnPredicate{
				Col: tc, Kind: PredIsNull, InDisjunction: disjunct,
			})
			return nil
		}
		return collectScalar(x.Operand, env, resolve, a)
	case *ColumnRef, *Literal, *FuncCall:
		return collectScalar(e, env, resolve, a)
	}
	return fmt.Errorf("sqlparse: unexpected boolean expression %T", e)
}

func collectComparison(x *BinaryExpr, env map[string]string, resolve Resolver, a *Analysis, disjunct bool) error {
	lc, lIsCol := x.Left.(*ColumnRef)
	rc, rIsCol := x.Right.(*ColumnRef)
	llit, lIsLit := x.Left.(*Literal)
	rlit, rIsLit := x.Right.(*Literal)

	// column op column across different tables with '=' → join predicate.
	if lIsCol && rIsCol {
		ltc, err := resolveColumn(lc, env, resolve)
		if err != nil {
			return err
		}
		rtc, err := resolveColumn(rc, env, resolve)
		if err != nil {
			return err
		}
		addRef(a, ltc)
		addRef(a, rtc)
		if x.Op == "=" && ltc.Table != rtc.Table && !disjunct {
			// Canonical order for dedup.
			if rtc.Table < ltc.Table || (rtc.Table == ltc.Table && rtc.Column < ltc.Column) {
				ltc, rtc = rtc, ltc
			}
			a.Joins = append(a.Joins, JoinPredicate{Left: ltc, Right: rtc})
		}
		return nil
	}

	// Normalize to column op literal.
	var col *ColumnRef
	var lit *Literal
	op := x.Op
	switch {
	case lIsCol && rIsLit:
		col, lit = lc, rlit
	case rIsCol && lIsLit:
		col, lit = rc, llit
		op = flipOp(op)
	default:
		if err := collectScalar(x.Left, env, resolve, a); err != nil {
			return err
		}
		return collectScalar(x.Right, env, resolve, a)
	}

	tc, err := resolveColumn(col, env, resolve)
	if err != nil {
		return err
	}
	addRef(a, tc)
	p := ColumnPredicate{Col: tc, InDisjunction: disjunct}
	switch op {
	case "=":
		p.Kind = PredEq
		p.EqValue = *lit
	case "<>":
		p.Kind = PredNeq
		p.EqValue = *lit
	case "<", "<=":
		p.Kind = PredRange
		if lit.Kind == LitNumber {
			p.Hi, p.HasHi = lit.Num, true
		}
	case ">", ">=":
		p.Kind = PredRange
		if lit.Kind == LitNumber {
			p.Lo, p.HasLo = lit.Num, true
		}
	}
	a.Preds = append(a.Preds, p)
	return nil
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// JoinKey returns a canonical string for a join predicate, useful as a map
// key during view matching and candidate enumeration.
func (j JoinPredicate) JoinKey() string {
	return strings.Join([]string{j.Left.Table, j.Left.Column, j.Right.Table, j.Right.Column}, "|")
}
