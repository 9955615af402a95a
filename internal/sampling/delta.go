package sampling

import (
	"math"
	"slices"

	"physdes/internal/stats"
)

// dStratum is one stratum of the Delta sampler: all configurations share
// the stratum's sample (the defining property of Delta Sampling).
type dStratum struct {
	stratum
	cols []moments // per configuration, cross sums against the current best

	// Prior moments from a warm snapshot per configuration, aggregated over
	// member templates, with cross sums against the snapshot's winner. They
	// pool into the estimator means always and into difference variances
	// while the incumbent is that winner; fresh samples alone drive
	// exhaustion, census and the finite-population correction.
	pcols []moments
}

// rowChunk is how many full-width rows the row history's first
// allocation holds; later growth doubles it.
const rowChunk = 64

// deltaSampler is the Delta Sampling estimator (Section 4.2): one shared
// stratification whose rows cost every alive configuration, estimating
// cost differences against the incumbent directly.
type deltaSampler struct {
	*driver

	strata []*dStratum

	// tmplDropped counts each template's queries degraded out of the run,
	// renormalizing template weights for Algorithm 2.
	tmplDropped []int

	// Row history, replayed when the incumbent changes and when a stratum
	// splits. hist holds the sampled rows back to
	// back in fold order, each row only the costs of the configurations
	// alive when it was folded, in configuration order. Elimination is
	// permanent, so configuration j's costs are the first elimAt[j] rows'.
	hist    []float64
	rowTmpl []int32 // row r's template; a Select samples each query at most once
	nrows   int
	elimAt  []int // rows folded while j was alive (math.MaxInt while alive)
	folded  []int // configurations alive at the last fold, ascending
	walkBuf []int // rowCursor scratch

	stratumOf []int // template → index of the stratum holding it
}

func newDeltaSampler(o Oracle, opts Options) *deltaSampler {
	dr := newDriver(o, opts)
	k, tc := dr.k, opts.TemplateCount
	d := &deltaSampler{
		driver:      dr,
		tmplDropped: make([]int, tc),
		rowTmpl:     make([]int32, o.N()),
		elimAt:      make([]int, k),
		folded:      make([]int, k),
		walkBuf:     make([]int, k),
		stratumOf:   make([]int, tc),
	}
	for j := range d.elimAt {
		d.elimAt[j] = math.MaxInt
		d.folded[j] = j
	}
	dr.start(d)
	return d
}

func (d *deltaSampler) numStrata(int) int           { return len(d.strata) }
func (d *deltaSampler) stratumAt(_, h int) *stratum { return &d.strata[h].stratum }

func (d *deltaSampler) addStratum(_ int, st stratum) *stratum {
	s := d.makeStratum(st)
	for _, t := range st.templates {
		d.stratumOf[t] = len(d.strata)
	}
	d.strata = append(d.strata, s)
	return &s.stratum
}

// makeStratum gives st its accumulators, seeded with its member templates'
// prior moments when it carries a prior.
func (d *deltaSampler) makeStratum(st stratum) *dStratum {
	s := &dStratum{stratum: st, cols: make([]moments, d.k)}
	if st.hasPrior {
		s.pcols = make([]moments, d.k)
		for j := range s.pcols {
			s.pcols[j] = d.prior.column(st.templates, j)
		}
	}
	return s
}

// priorUsable reports whether stratum s's prior moments may pool into the
// difference variance of pair (b, j): the prior cross sums are relative
// to the snapshot's winner, so they only compose while b is that winner,
// and both columns must cover the same prior sample (a configuration
// eliminated mid-way through the prior run has a shorter column).
//
//physdes:zeroalloc
func (d *deltaSampler) priorUsable(s *dStratum, b, j int) bool {
	return s.hasPrior && b == d.priorBest && s.pcols[b].n == s.pcols[j].n && s.pcols[b].n > 0
}

// dropped shrinks the degraded query's template weight.
func (d *deltaSampler) dropped(q int) { d.tmplDropped[d.opts.TemplateIndex[q]]++ }

// tmplSize is the template's live population: its full size minus the
// queries degraded out of the run.
func (d *deltaSampler) tmplSize(t int) int {
	return d.pop.templateSize(t) - d.tmplDropped[t]
}

// fold records a sampled row — out holds the alive configurations' costs
// in configuration order — into the row history and the stratum and
// template accumulators. It runs in O(live) time: the row is stored as
// given, and only the configurations eliminated since the last fold are
// visited to end their cost prefixes.
//
//physdes:zeroalloc
func (d *deltaSampler) fold(sl slot, out []float64) {
	if len(out) != len(d.folded) {
		for _, j := range d.folded {
			if !d.alive[j] {
				d.elimAt[j] = d.nrows
			}
		}
		d.folded = d.folded[:copy(d.folded, d.aliveIdx)]
	}
	n := len(d.hist)
	if cap(d.hist)-n < len(out) {
		grown := make([]float64, n, max(2*n, rowChunk*d.k)) //physdes:allocok amortized growth: each reallocation doubles the row history
		copy(grown, d.hist)
		d.hist = grown
	}
	d.hist = d.hist[:n+len(out)]
	copy(d.hist[n:], out)

	s := d.strata[sl.h]
	tmpl := d.opts.TemplateIndex[sl.q]
	d.rowTmpl[d.nrows] = int32(tmpl)
	d.nrows++

	cb := out[indexOf(d.aliveIdx, d.best)]
	tcols := d.tcols[tmpl]
	for i, j := range d.aliveIdx {
		s.cols[j].addRow(cb, out[i])
		tcols[j].addRow(cb, out[i])
	}
}

// indexOf returns the position of j in the ascending list cfgs, or -1.
// The incumbent is always alive, so its lookups never miss.
//
//physdes:zeroalloc
func indexOf(cfgs []int, j int) int {
	if i, ok := slices.BinarySearch(cfgs, j); ok {
		return i
	}
	return -1
}

// rowCursor walks the row history in fold order. After next, tmpl is the
// row's template, cfgs the configurations alive when it was folded
// (ascending) and costs their costs in the same order.
type rowCursor struct {
	d     *deltaSampler
	r     int // rows visited
	off   int // offset of the current row in d.hist
	until int // first row some member of cfgs was no longer alive for

	tmpl  int
	cfgs  []int
	costs []float64
}

// rowWalk starts a walk over the row history.
func (d *deltaSampler) rowWalk() rowCursor {
	cfgs := d.walkBuf[:d.k]
	for j := range cfgs {
		cfgs[j] = j
	}
	return rowCursor{d: d, cfgs: cfgs}
}

// next advances to the next row and reports whether there was one.
func (c *rowCursor) next() bool {
	d := c.d
	if c.r == d.nrows {
		return false
	}
	if c.r == c.until {
		// Some configuration's cost prefix ended before this row.
		live := c.cfgs[:0]
		c.until = math.MaxInt
		for _, j := range c.cfgs {
			if e := d.elimAt[j]; e > c.r {
				live = append(live, j)
				c.until = min(c.until, e)
			}
		}
		c.cfgs = live
	}
	c.off += len(c.costs)
	c.costs = d.hist[c.off : c.off+len(c.cfgs)]
	c.tmpl = int(d.rowTmpl[c.r])
	c.r++
	return true
}

func (d *deltaSampler) columns(j int, dst []stratMoments) []stratMoments {
	for _, s := range d.strata {
		dst = append(dst, stratMoments{s.cols[j], s.size, s.n})
		if s.hasPrior {
			dst[len(dst)-1].pool(&s.pcols[j])
		}
	}
	return dst
}

// pairs forms the difference best − j, pooled with the prior where it
// composes (priorUsable).
func (d *deltaSampler) pairs(j int, pooled bool, dst []stratMoments) []stratMoments {
	b := d.best
	for _, s := range d.strata {
		dst = append(dst, stratMoments{size: s.size, fresh: s.n})
		m := &dst[len(dst)-1].moments
		m.setDiff(&s.cols[b], &s.cols[j])
		if pooled && d.priorUsable(s, b, j) {
			m.poolDiff(&s.pcols[b], &s.pcols[j])
		}
	}
	return dst
}

// priorPair compares the difference best − j only where both prior
// columns cover the same prior sample; the prior's variance is known only
// while the incumbent is the snapshot's winner, which the prior cross
// sums are taken against.
func (d *deltaSampler) priorPair(h, j int) (fresh, prior moments, priorVar bool) {
	s, b := d.strata[h], d.best
	fresh.setDiff(&s.cols[b], &s.cols[j])
	if s.pcols[b].n != s.pcols[j].n {
		return fresh, prior, false
	}
	prior.setDiff(&s.pcols[b], &s.pcols[j])
	return fresh, prior, b == d.priorBest
}

// varianceDrop sums the drop over every pair against the incumbent.
func (d *deltaSampler) varianceDrop(_, h int) float64 {
	s, b := d.strata[h], d.best
	var m moments
	var drop float64
	for _, j := range d.aliveIdx {
		if j != b {
			m.setDiff(&s.cols[b], &s.cols[j])
			drop += m.varianceDrop(s.size)
		}
	}
	return drop
}

func (d *deltaSampler) tmplMoments(t, j int) (m moments, weight int) {
	m.setDiff(&d.tcols[t][d.best], &d.tcols[t][j])
	return m, d.tmplSize(t)
}

// bestChanged rebuilds the Σ c_best·c_j accumulators from the row history
// against the new incumbent. Each stratum and template accumulator sees
// its rows in fold order, so the Kahan sums match a fresh fold exactly.
func (d *deltaSampler) bestChanged() {
	b := d.best
	for _, s := range d.strata {
		clearCross(s.cols)
	}
	for _, cols := range d.tcols {
		clearCross(cols)
	}
	for c := d.rowWalk(); c.next(); {
		cb := c.costs[indexOf(c.cfgs, b)]
		cols, tcols := d.strata[d.stratumOf[c.tmpl]].cols, d.tcols[c.tmpl]
		for i, j := range c.cfgs {
			cols[j].cross.AddProduct(cb, c.costs[i])
			tcols[j].cross.AddProduct(cb, c.costs[i])
		}
	}
}

func clearCross(cols []moments) {
	for j := range cols {
		cols[j].cross = stats.Kahan{}
	}
}

// splitTarget constrains Algorithm 2 by the alive configuration with the
// lowest pairwise Pr(CS) versus the incumbent (single ranking, Section
// 5.1's tractability simplification for Delta Sampling): the difference
// estimator of that pair must reach the variance at which the Bonferroni
// bound meets α.
func (d *deltaSampler) splitTarget() (part, j int, targetVar float64, ok bool) {
	worst := d.worstPair()
	if worst < 0 {
		return 0, 0, 0, false
	}
	gap := d.estimate(worst) - d.estimate(d.best)
	targetVar = stats.TargetVarianceForPrCS(gap, d.opts.Delta, d.perPairTarget())
	return 0, worst, targetVar, !math.IsInf(targetVar, 1)
}

// applySplit replaces the split stratum with its two children, partitioning
// the unsampled order and replaying the sampled rows into the right child.
func (d *deltaSampler) applySplit(_ int, dec splitDecision) (int, int) {
	parent := d.strata[dec.stratum]
	leftTmpls, rightTmpls, inLeft := splitParts(parent.templates, dec)
	mk := func(tmpls []int) *dStratum {
		size := 0
		for _, t := range tmpls {
			size += d.tmplSize(t)
		}
		// A warm stratum's children keep the prior moments of their own
		// member templates.
		return d.makeStratum(stratum{templates: tmpls, size: size, pilotN: d.opts.NMin, hasPrior: parent.hasPrior})
	}
	left, right := mk(leftTmpls), mk(rightTmpls)

	// Partition the remaining (unsampled) order, preserving its random
	// relative order within each child.
	for _, q := range parent.order[parent.next:] {
		if inLeft[d.opts.TemplateIndex[q]] {
			left.order = append(left.order, q)
		} else {
			right.order = append(right.order, q)
		}
	}
	// Replay the parent's sampled rows into the children.
	for c := d.rowWalk(); c.next(); {
		if d.stratumOf[c.tmpl] != dec.stratum {
			continue
		}
		child := right
		if inLeft[c.tmpl] {
			child = left
		}
		child.n++
		cb := c.costs[indexOf(c.cfgs, d.best)]
		for i, j := range c.cfgs {
			child.cols[j].addRow(cb, c.costs[i])
		}
	}

	left.avgOver = d.avgOverhead(left.order)
	right.avgOver = d.avgOverhead(right.order)
	d.strata[dec.stratum] = left
	for _, t := range rightTmpls {
		d.stratumOf[t] = len(d.strata)
	}
	d.strata = append(d.strata, right)
	return dec.stratum, len(d.strata) - 1
}
