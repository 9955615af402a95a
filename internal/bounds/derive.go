package bounds

import (
	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/par"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
	"physdes/internal/workload"
)

// Deriver computes per-query cost intervals per Section 6.1.
//
// SELECT statements: the cost in the base configuration — the structures
// present in every configuration enumerated during tuning — upper-bounds
// the cost in any enumerated configuration (the optimizer is well-behaved);
// the cost in the base configuration augmented with every structure
// potentially useful to the query (the stand-in for the instrumented
// optimizer of Bruno & Chaudhuri [2]) lower-bounds it.
//
// UPDATE/INSERT/DELETE statements: per template, the members with the
// largest and smallest WHERE selectivity bound every member's write cost
// (pure update cost grows with selectivity); the write part's maintenance
// is bounded between the base configuration (fewest structures) and the
// union of all candidate structures (most maintenance). This needs only
// two optimizer calls per template and configuration, as the paper notes.
type Deriver struct {
	opt whatIf
	cat *catalog.Catalog
	par int

	base *physical.Configuration
	all  *physical.Configuration
}

// whatIf is what a Deriver costs through: an *optimizer.Optimizer, or a
// caller's wrapper around one that counts the calls its derivation makes.
type whatIf interface {
	Catalog() *catalog.Catalog
	Cost(a *sqlparse.Analysis, cfg *physical.Configuration) float64
	UpdateParts(a *sqlparse.Analysis, cfg *physical.Configuration) (locate, write float64)
	SelectivityOf(a *sqlparse.Analysis) float64
}

// NewDeriver builds a deriver for a tuning session whose configuration
// space is spanned by configs: the base configuration is their
// intersection, and the all-structures configuration their union. opt is
// an *optimizer.Optimizer or a wrapper around one.
func NewDeriver(opt whatIf, configs ...*physical.Configuration) *Deriver {
	return &Deriver{
		opt:  opt,
		cat:  opt.Catalog(),
		base: physical.Intersection("base", configs...),
		all:  physical.Union("all-structures", configs...),
	}
}

// Base returns the base configuration in use.
func (d *Deriver) Base() *physical.Configuration { return d.base }

// WithParallelism sets the bounded worker count WorkloadIntervals fans its
// per-query and per-template derivations out over (values <= 1 derive
// serially) and returns the deriver for chaining. Each query's interval is
// a pure function of the immutable catalog and configurations, so the
// derived intervals — and the optimizer-call total — are identical at
// every setting.
func (d *Deriver) WithParallelism(p int) *Deriver {
	d.par = p
	return d
}

// QueryInterval bounds one SELECT's cost across the configuration space.
func (d *Deriver) QueryInterval(a *sqlparse.Analysis) Interval {
	return d.selectInterval(a, d.bestForQuery(a))
}

// bestForQuery grafts the structures potentially useful to a — its own
// candidates — onto the base configuration. The candidate set depends only
// on the statement's structure, never on its literals, so every member of
// a template shares one best-for-query configuration.
func (d *Deriver) bestForQuery(a *sqlparse.Analysis) *physical.Configuration {
	cands := physical.EnumerateCandidates(d.cat, []*sqlparse.Analysis{a},
		physical.CandidateOptions{Covering: true, Views: true})
	return d.base.With("best-for-query", cands...)
}

// selectInterval bounds a SELECT's cost between its cost under best (the
// lower end) and under the base configuration (the upper end).
func (d *Deriver) selectInterval(a *sqlparse.Analysis, best *physical.Configuration) Interval {
	hi := d.opt.Cost(a, d.base)
	lo := d.opt.Cost(a, best)
	if lo > hi {
		lo = hi // guard against cost-model noise
	}
	return Interval{Lo: lo, Hi: hi}
}

// updateInterval bounds one DML statement's cost across the space using
// the Section 6.1 split: the locate (SELECT) part is worst in the base
// configuration and best with every seek structure available; the write
// part is worst with every structure maintained (the union configuration)
// and best in the base configuration.
func (d *Deriver) updateInterval(a *sqlparse.Analysis) Interval {
	locateHi, _ := d.opt.UpdateParts(a, d.base)
	_, writeHi := d.opt.UpdateParts(a, d.all)
	cands := physical.EnumerateCandidates(d.cat, []*sqlparse.Analysis{a},
		physical.CandidateOptions{Covering: false, Views: false})
	seek := d.base.With("seek-for-update", cands...)
	locateLo, writeLo := d.opt.UpdateParts(a, seek)
	baseLocate, baseWrite := d.opt.UpdateParts(a, d.base)
	if baseLocate < locateLo {
		locateLo = baseLocate
	}
	if baseWrite < writeLo {
		writeLo = baseWrite
	}
	lo, hi := locateLo+writeLo, locateHi+writeHi
	if lo > hi {
		lo = hi
	}
	return Interval{Lo: lo, Hi: hi}
}

// WorkloadIntervals derives cost intervals for the entire workload.
// SELECT statements are bounded individually; DML statements are bounded
// per template via their extreme-selectivity members, so the optimizer is
// called O(#templates) rather than O(N) times for the DML part. Templates
// are the workload's partition.
func (d *Deriver) WorkloadIntervals(w *workload.Workload) []Interval {
	part := w.Partition()
	// Per template: its DML members of least and greatest selectivity
	// (the first of equals; minQ < 0 when it has none), and the
	// best-for-query configuration of its first SELECT member, built
	// serially in first-occurrence order.
	minQ := make([]int, len(part.Members))
	maxQ := make([]int, len(part.Members))
	bestOf := make([]*physical.Configuration, len(part.Members))
	for t, members := range part.Members {
		minQ[t], maxQ[t] = -1, -1
		var minSel, maxSel float64
		for _, q := range members {
			a := w.Queries[q].Analysis
			if !a.Kind.IsUpdate() {
				if bestOf[t] == nil {
					bestOf[t] = d.bestForQuery(a)
				}
				continue
			}
			sel := d.opt.SelectivityOf(a)
			if minQ[t] < 0 || sel < minSel {
				minSel, minQ[t] = sel, q
			}
			if maxQ[t] < 0 || sel > maxSel {
				maxSel, maxQ[t] = sel, q
			}
		}
	}
	// Template bounds derive from two member statements; other members'
	// costs can exceed them by the optimizer's per-query variability band,
	// so widen accordingly (the paper: "even very conservative cost bounds
	// tend to work well").
	bandLo, bandHi := optimizer.CostBand()
	dml := make([]Interval, len(part.Members))
	par.For(len(part.Members), d.par, func(t int) {
		if minQ[t] < 0 {
			return
		}
		lo := d.updateInterval(w.Queries[minQ[t]].Analysis).Lo * bandLo / bandHi
		hi := d.updateInterval(w.Queries[maxQ[t]].Analysis).Hi * bandHi / bandLo
		if lo > hi {
			lo = hi
		}
		dml[t] = Interval{Lo: lo, Hi: hi}
	})

	// SELECT statements derive independently (base + best-for-query
	// configuration costs per query): the fan-out makes only the two
	// what-if calls per statement and folds them into positional slots.
	out := make([]Interval, w.Size())
	par.For(w.Size(), d.par, func(i int) {
		t := part.Of[i]
		if a := w.Queries[i].Analysis; a.Kind.IsUpdate() {
			out[i] = dml[t]
		} else {
			out[i] = d.selectInterval(a, bestOf[t])
		}
	})
	return out
}

// DiffIntervals converts per-query cost intervals under two configurations
// into intervals on the per-query cost *difference* — the population Delta
// Sampling estimates. For query i with cost in [loA, hiA] under A and
// [loB, hiB] under B, the difference lies in [loA−hiB, hiA−loB]. The
// result is shifted to be non-negative (variance and skew are translation
// invariant), so it can feed SigmaMaxDP directly.
func DiffIntervals(a, b []Interval) []Interval {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]Interval, n)
	minLo := 0.0
	for i := 0; i < n; i++ {
		lo := a[i].Lo - b[i].Hi
		hi := a[i].Hi - b[i].Lo
		out[i] = Interval{Lo: lo, Hi: hi}
		if lo < minLo {
			minLo = lo
		}
	}
	if minLo < 0 {
		for i := range out {
			out[i].Lo -= minLo
			out[i].Hi -= minLo
		}
	}
	return out
}
