package optimizer

import (
	"sync/atomic"

	"physdes/internal/physical"
	"physdes/internal/sqlparse"

	"physdes/internal/catalog"
	"physdes/internal/obs"
)

// Optimizer is the what-if interface: Cost(analysis, configuration) returns
// the optimizer-estimated cost of executing the statement under the
// hypothetical configuration. It is safe for concurrent use. The call
// counter tracks the number of what-if invocations — the resource the
// paper's comparison primitive economizes.
type Optimizer struct {
	cat     *catalog.Catalog
	calls   atomic.Int64
	metrics atomic.Pointer[optMetrics]
}

// optMetrics holds the registry handles resolved by SetMetrics; the
// pointer stays nil (one relaxed load per Cost call) until attached.
type optMetrics struct {
	calls   *obs.Counter
	latency *obs.Histogram
}

// New returns an optimizer over the catalog.
func New(cat *catalog.Catalog) *Optimizer {
	return &Optimizer{cat: cat}
}

// Catalog returns the catalog the optimizer costs against.
func (o *Optimizer) Catalog() *catalog.Catalog { return o.cat }

// SetMetrics exports the optimizer's counters on the registry:
// optimizer_calls_total counts what-if invocations (it tracks Calls() but
// is monotonic across ResetCalls) and optimizer_cost_seconds is a
// latency histogram of individual cost calls. Passing nil detaches.
func (o *Optimizer) SetMetrics(r *obs.Registry) {
	if r == nil {
		o.metrics.Store(nil)
		return
	}
	o.metrics.Store(&optMetrics{
		calls:   r.Counter("optimizer_calls_total"),
		latency: r.Histogram("optimizer_cost_seconds"),
	})
}

// Calls returns the number of Cost invocations since the last reset.
func (o *Optimizer) Calls() int64 { return o.calls.Load() }

// ResetCalls zeroes the call counter.
func (o *Optimizer) ResetCalls() { o.calls.Store(0) }

// OptimizeOverhead estimates the relative wall-clock cost of one what-if
// optimizer call for the statement — join ordering dominates optimization
// time, so the overhead grows with the number of joined tables and
// predicates. Section 5.2's overhead-aware sample selection divides each
// candidate sample's variance reduction by this quantity.
func (o *Optimizer) OptimizeOverhead(a *sqlparse.Analysis) float64 {
	t := len(a.Tables)
	// Left-deep join ordering explores O(2^t)-ish plans before pruning;
	// model a steep but bounded growth.
	overhead := 1.0
	for i := 1; i < t && i < 8; i++ {
		overhead *= 1.8
	}
	overhead += 0.1 * float64(len(a.Preds))
	return overhead
}

// Cost returns the estimated cost of the analyzed statement under cfg.
// Every invocation counts as one optimizer call.
//
//physdes:zeroalloc
func (o *Optimizer) Cost(a *sqlparse.Analysis, cfg *physical.Configuration) float64 {
	locate, write := o.whatIf(a, cfg)
	return locate + write
}

// UpdateParts exposes the Section 6.1 split of a DML statement's cost under
// cfg: the SELECT part (locating the qualifying rows) and the pure write
// part (base-table writes plus structure maintenance). It charges one
// optimizer call. For SELECT statements the write part is 0.
//
//physdes:zeroalloc
func (o *Optimizer) UpdateParts(a *sqlparse.Analysis, cfg *physical.Configuration) (locate, write float64) {
	return o.whatIf(a, cfg)
}

// whatIf is the one instrumented what-if entry behind Cost and
// UpdateParts: it charges one call and, with metrics attached, counts it
// in optimizer_calls_total and times it into optimizer_cost_seconds.
//
//physdes:zeroalloc
func (o *Optimizer) whatIf(a *sqlparse.Analysis, cfg *physical.Configuration) (locate, write float64) {
	o.calls.Add(1)
	m := o.metrics.Load()
	if m == nil {
		return o.parts(a, cfg)
	}
	sw := obs.NewStopwatch()
	locate, write = o.parts(a, cfg)
	m.latency.Observe(sw.Elapsed().Seconds())
	m.calls.Inc()
	return locate, write
}

// parts evaluates the statement's (locate, write) split; a SELECT is all
// locate and an INSERT all write.
//
//physdes:zeroalloc
func (o *Optimizer) parts(a *sqlparse.Analysis, cfg *physical.Configuration) (locate, write float64) {
	var buf probeBuf
	p := o.newProbe(a, cfg, &buf)
	switch a.Kind {
	case sqlparse.KindSelect:
		return p.costSelect(), 0
	case sqlparse.KindInsert:
		return 0, p.costInsert()
	case sqlparse.KindDelete:
		return p.updateParts(true)
	default:
		return p.updateParts(false)
	}
}

// costInsert charges the base-table write plus maintenance of every index
// and view over the table. This is where additional structures hurt: the
// trade-off between SELECT speedups and UPDATE maintenance the problem
// formulation (footnote 1 of the paper) captures.
func (p *probe) costInsert() float64 {
	a := p.a
	cost := WriteRowCost + BTreeDescentCost
	cost += float64(len(p.cfg.IndexesOn(a.ModifiedTable))) * IndexMaintRowCost
	for _, v := range p.cfg.Views() {
		if v.HasTable(a.ModifiedTable) {
			cost += ViewMaintRowFactor * float64(len(v.Tables))
		}
	}
	return cost
}

// updateParts charges the SELECT part of an UPDATE or DELETE (locating
// qualifying rows under the configuration — the split of Section 6.1) and
// the write part: base-table writes and index/view maintenance
// proportional to the number of affected rows. DELETE affects every
// index; UPDATE affects only indexes containing a modified column.
//
//physdes:zeroalloc
func (p *probe) updateParts(isDelete bool) (locate, write float64) {
	a := p.a
	s := tableIndex(a, a.ModifiedTable)
	if s < 0 || p.slots[s].t == nil {
		return 0, WriteRowCost
	}
	// SELECT part: find the qualifying rows.
	ap := p.bestAccess(s, reads{preds: a.Preds})
	affected := ap.rows
	if a.TopK > 0 && a.TopK < affected {
		affected = a.TopK
	}
	if affected < 1 {
		affected = 1
	}
	write = affected * WriteRowCost

	for _, ix := range p.slots[s].on {
		if isDelete || indexTouches(ix, a.ModifiedCols) {
			write += affected * IndexMaintRowCost
		}
	}
	for _, v := range p.cfg.Views() {
		if v.HasTable(a.ModifiedTable) {
			write += affected * ViewMaintRowFactor * float64(len(v.Tables))
		}
	}
	return ap.cost, write
}

func indexTouches(ix *physical.Index, modified []string) bool {
	for _, c := range ix.Key {
		if contains(modified, c) {
			return true
		}
	}
	for _, c := range ix.Include {
		if contains(modified, c) {
			return true
		}
	}
	return false
}
