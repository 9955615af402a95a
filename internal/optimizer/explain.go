package optimizer

import (
	"fmt"
	"strings"

	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// PlanNode is one operator of an explained plan. Cost is cumulative (the
// operator plus its inputs), mirroring how EXPLAIN output reads in real
// engines.
type PlanNode struct {
	// Op is the operator: HeapScan, IndexSeek, IndexScan, ViewScan,
	// HashJoin, IndexNLJoin, CrossJoin, Sort, Aggregate, Locate or Write.
	Op string
	// Detail names the object, join key or sort columns involved.
	Detail string
	// Cost is the cumulative cost up to and including this operator.
	Cost float64
	// Rows is the operator's output cardinality estimate.
	Rows float64
	// Children are the operator's inputs.
	Children []*PlanNode
}

// Plan is an explained statement: the chosen operator tree and its total
// cost, which equals what Cost reports for the same inputs.
type Plan struct {
	Root  *PlanNode
	Total float64
}

// String renders the plan as an indented tree.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total cost %.2f\n", p.Total)
	var walk func(n *PlanNode, depth int)
	walk = func(n *PlanNode, depth int) {
		if n == nil {
			return
		}
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", depth), n.Op)
		if n.Detail != "" {
			fmt.Fprintf(&b, "(%s)", n.Detail)
		}
		fmt.Fprintf(&b, " cost=%.2f rows=%.0f\n", n.Cost, n.Rows)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 1)
	return b.String()
}

// Explain returns the plan the cost model chooses for the statement under
// cfg; Plan.Total equals Cost(a, cfg) for the same inputs. It charges one
// optimizer call.
func (o *Optimizer) Explain(a *sqlparse.Analysis, cfg *physical.Configuration) *Plan {
	o.calls.Add(1)
	if a.Kind == sqlparse.KindSelect {
		var buf probeBuf
		pr := o.newProbe(a, cfg, &buf)
		p := pr.planSelect(nil, nil, nil)
		return &Plan{Root: p.tree(a), Total: p.cost}
	}
	return o.explainDML(a, cfg)
}

func (o *Optimizer) explainDML(a *sqlparse.Analysis, cfg *physical.Configuration) *Plan {
	locate, write := o.parts(a, cfg)
	var children []*PlanNode
	if locate > 0 {
		var buf probeBuf
		pr := o.newProbe(a, cfg, &buf)
		ap := pr.bestAccess(tableIndex(a, a.ModifiedTable), reads{preds: a.Preds})
		children = append(children, &PlanNode{
			Op: "Locate", Detail: ap.op + " " + ap.detail, Cost: locate, Rows: ap.rows,
		})
	}
	total := locate + write
	root := &PlanNode{
		Op:       "Write",
		Detail:   fmt.Sprintf("%s %s", a.Kind, a.ModifiedTable),
		Cost:     total,
		Rows:     1,
		Children: children,
	}
	return &Plan{Root: root, Total: total}
}
