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
	sums   []stats.Kahan // per config Σ cost
	sumsqs []stats.Kahan // per config Σ cost²
	cross  []stats.Kahan // per config Σ cost_best·cost_j (vs current best)

	// Prior moments from a warm snapshot, aggregated over member
	// templates (nil on cold runs and fresh strata). They pool into the
	// estimator means always and into difference variances while the
	// incumbent matches the snapshot's winner; fresh samples alone drive
	// exhaustion, census and the finite-population correction.
	pN     []int         // per config prior sample count
	pSum   []stats.Kahan // per config prior Σ cost
	pSumsq []stats.Kahan // per config prior Σ cost²
	pCross []stats.Kahan // per config prior Σ cost_best·cost_j (vs prior best)
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

	// Per-template estimator statistics (per configuration), for split
	// decisions.
	tCount []int
	tSum   [][]stats.Kahan
	tSumsq [][]stats.Kahan
	tCross [][]stats.Kahan

	// Row history, replayed when the incumbent changes, a stratum splits
	// and a warm snapshot is captured. hist holds the sampled rows back to
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

	splitWorst int // constraining configuration of the split in progress
}

func newDeltaSampler(o Oracle, opts Options) *deltaSampler {
	dr := newDriver(o, opts)
	k, tc := dr.k, max(opts.TemplateCount, 1)
	d := &deltaSampler{
		driver:    dr,
		tCount:    make([]int, tc),
		tSum:      make([][]stats.Kahan, tc),
		tSumsq:    make([][]stats.Kahan, tc),
		tCross:    make([][]stats.Kahan, tc),
		rowTmpl:   make([]int32, o.N()),
		elimAt:    make([]int, k),
		folded:    make([]int, k),
		walkBuf:   make([]int, k),
		stratumOf: make([]int, tc),

		tmplDropped: make([]int, tc),
	}
	for j := range d.elimAt {
		d.elimAt[j] = math.MaxInt
		d.folded[j] = j
	}
	for t := range d.tSum {
		d.tSum[t] = make([]stats.Kahan, k)
		d.tSumsq[t] = make([]stats.Kahan, k)
		d.tCross[t] = make([]stats.Kahan, k)
	}
	dr.start(d)
	return d
}

// sampleFrom draws the next query of stratum h (see driver.draw).
func (d *deltaSampler) sampleFrom(h int) (bool, error) { return d.draw(0, h) }

func (d *deltaSampler) numStrata(int) int           { return len(d.strata) }
func (d *deltaSampler) stratumAt(_, h int) *stratum { return &d.strata[h].stratum }

func (d *deltaSampler) addStratum(_ int, st stratum) *stratum {
	s := &dStratum{
		stratum: st,
		sums:    make([]stats.Kahan, d.k),
		sumsqs:  make([]stats.Kahan, d.k),
		cross:   make([]stats.Kahan, d.k),
	}
	for _, t := range st.templates {
		d.stratumOf[t] = len(d.strata)
	}
	d.strata = append(d.strata, s)
	return &s.stratum
}

func (d *deltaSampler) seedPrior(_, h int) { d.attachPrior(d.strata[h]) }

// attachPrior gives s prior accumulators holding its member templates'
// prior moments.
func (d *deltaSampler) attachPrior(s *dStratum) {
	s.pN = make([]int, d.k)
	s.pSum = make([]stats.Kahan, d.k)
	s.pSumsq = make([]stats.Kahan, d.k)
	s.pCross = make([]stats.Kahan, d.k)
	d.reseedStratumPrior(s)
}

// reseedStratumPrior aggregates the per-template prior moments of the
// stratum's members into its preallocated prior accumulators — the
// moment-reseeding hot path of a warm resume (and of every later split
// of a warm stratum).
//
//physdes:zeroalloc
func (d *deltaSampler) reseedStratumPrior(s *dStratum) {
	for j := 0; j < d.k; j++ {
		s.pN[j] = 0
		s.pSum[j] = stats.Kahan{}
		s.pSumsq[j] = stats.Kahan{}
		s.pCross[j] = stats.Kahan{}
	}
	for _, t := range s.templates {
		pn := d.prior.n[t]
		if pn == nil {
			continue
		}
		for j := 0; j < d.k; j++ {
			s.pN[j] += pn[j]
			s.pSum[j].AddKahan(d.prior.sum[t][j])
			s.pSumsq[j].AddKahan(d.prior.sumsq[t][j])
			s.pCross[j].AddKahan(d.prior.cross[t][j])
		}
	}
}

// priorUsable reports whether stratum s's prior moments may pool into the
// difference variance of pair (b, j): the prior cross sums are relative
// to the snapshot's winner, so they only compose while b is that winner,
// and both columns must cover the same prior sample (a configuration
// eliminated mid-way through the prior run has a shorter column).
//
//physdes:zeroalloc
func (d *deltaSampler) priorUsable(s *dStratum, b, j int) bool {
	return s.pN != nil && b == d.priorBest && s.pN[b] == s.pN[j] && s.pN[b] > 0
}

// checkPriorDrift is the warm path's online safety net: every round, each
// stratum with enough fresh samples z-tests its prior difference means
// (best vs j — the quantity the selection actually rides on) against the
// fresh ones and sheds the entire stratum prior on disagreement. The test
// runs on differences, not per-configuration costs, because correlated
// costs make the difference variance orders of magnitude smaller than the
// within-stratum cost variance — drift invisible at the cost scale is
// glaring at the difference scale. A snapshot that described a different
// cost distribution (drift the parameter signatures missed) would
// otherwise pull the pooled estimates — confidently — toward the previous
// run's winner.
//
//physdes:zeroalloc
func (d *deltaSampler) checkPriorDrift() int {
	b := d.best
	dropped := 0
	for _, s := range d.strata {
		if s.pN == nil || s.n < priorCheckMinFresh {
			continue
		}
		drifted := false
		for j := 0; j < d.k && !drifted; j++ {
			if j == b || !d.alive[j] {
				continue
			}
			// Prior difference means need both columns over the same prior
			// sample (a configuration eliminated mid-way through the prior
			// run has a shorter column).
			pn := s.pN[b]
			if pn != s.pN[j] || pn < 2 || s.n < 2 {
				continue
			}
			fSum := s.sums[b]
			fSum.SubKahan(s.sums[j])
			fSumsq := s.sumsqs[b]
			fSumsq.AddKahan(s.sumsqs[j])
			fSumsq.SubKahan(s.cross[j].Scaled(2))
			fVar, _ := stats.SampleVarFromKahanSums(fSum, fSumsq, s.n)

			pSum := s.pSum[b]
			pSum.SubKahan(s.pSum[j])
			pVar := fVar
			if b == d.priorBest {
				pSumsq := s.pSumsq[b]
				pSumsq.AddKahan(s.pSumsq[j])
				pSumsq.SubKahan(s.pCross[j].Scaled(2))
				pVar, _ = stats.SampleVarFromKahanSums(pSum, pSumsq, pn)
			}
			// When the incumbent moved off the snapshot's winner the prior
			// cross sums don't compose for this pair; the fresh difference
			// variance stands in — correlated costs keep the two close.
			drifted = meansDiffer(fSum.Sum()/float64(s.n), fVar, s.n,
				pSum.Sum()/float64(pn), pVar, pn)
		}
		if !drifted {
			continue
		}
		s.pN = nil
		s.pSum = nil
		s.pSumsq = nil
		s.pCross = nil
		dropped++
	}
	return dropped
}

// dropped shrinks the degraded query's template weight.
func (d *deltaSampler) dropped(q int) {
	if d.opts.TemplateIndex != nil {
		d.tmplDropped[d.opts.TemplateIndex[q]]++
	}
}

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
	tmpl := 0
	if d.opts.TemplateIndex != nil {
		tmpl = d.opts.TemplateIndex[sl.q]
	}
	d.rowTmpl[d.nrows] = int32(tmpl)
	d.nrows++

	cb := out[indexOf(d.aliveIdx, d.best)]
	for i, j := range d.aliveIdx {
		c := out[i]
		s.sums[j].Add(c)
		s.sumsqs[j].AddProduct(c, c)
		s.cross[j].AddProduct(cb, c)
		d.tSum[tmpl][j].Add(c)
		d.tSumsq[tmpl][j].AddProduct(c, c)
		d.tCross[tmpl][j].AddProduct(cb, c)
	}
	d.tCount[tmpl]++
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

// estimate returns X_j = Σ_h |WL_h|·mean_h(j) for an alive configuration.
// Strata without samples fall back to the configuration's global sample
// mean — unbiased strata-wise coverage is exactly what fine stratification
// at small sample sizes lacks (Figure 2).
func (d *deltaSampler) estimate(j int) float64 {
	var globalSum stats.Kahan
	globalN := 0
	for _, s := range d.strata {
		globalSum.AddKahan(s.sums[j])
		globalN += s.n
		if s.pN != nil {
			pe, f := priorEff(s.pN[j], s.n)
			globalSum.AddKahan(s.pSum[j].Scaled(f))
			globalN += pe
		}
	}
	globalMean := 0.0
	if globalN > 0 {
		globalMean = globalSum.Sum() / float64(globalN)
	}
	var x float64
	for _, s := range d.strata {
		n := s.n
		sum := s.sums[j]
		if s.pN != nil {
			pe, f := priorEff(s.pN[j], s.n)
			n += pe
			sum.AddKahan(s.pSum[j].Scaled(f))
		}
		if n > 0 {
			x += float64(s.size) * (sum.Sum() / float64(n))
		} else {
			x += float64(s.size) * globalMean
		}
	}
	return x
}

func (d *deltaSampler) pairSEs(se []float64) {
	for _, j := range d.aliveIdx {
		if j != d.best {
			se[j] = sqrtPos(d.pairDiffVar(j))
		}
	}
}

// pairDiffVar returns Var(X_{b,j}) per Equations 4 and 5: the stratified
// variance of the difference estimator between the current best b and j.
func (d *deltaSampler) pairDiffVar(j int) float64 {
	b := d.best
	// Global fallback s² for strata with n < 2.
	var gSum, gSumsq stats.Kahan
	gN := 0
	for _, s := range d.strata {
		gSum.AddKahan(s.sums[b])
		gSum.SubKahan(s.sums[j])
		gSumsq.AddKahan(s.sumsqs[b])
		gSumsq.AddKahan(s.sumsqs[j])
		gSumsq.SubKahan(s.cross[j].Scaled(2))
		gN += s.n
		if d.priorUsable(s, b, j) {
			pe, f := priorEff(s.pN[b], s.n)
			gSum.AddKahan(s.pSum[b].Scaled(f))
			gSum.SubKahan(s.pSum[j].Scaled(f))
			gSumsq.AddKahan(s.pSumsq[b].Scaled(f))
			gSumsq.AddKahan(s.pSumsq[j].Scaled(f))
			gSumsq.SubKahan(s.pCross[j].Scaled(2 * f))
			gN += pe
		}
	}
	gVar, _ := stats.SampleVarFromKahanSums(gSum, gSumsq, gN)
	// A conservative σ²_max bound (Section 6.2) replaces any smaller
	// sample-variance estimate, per stratum and in the fallback.
	boundS2, haveBound := 0.0, false
	if bound := d.opts.VarianceBound; bound != nil {
		boundS2, haveBound = bound([2]int{b, j}, gN)
	}
	if haveBound && boundS2 > gVar {
		gVar = boundS2
	}

	var v float64
	for _, s := range d.strata {
		if s.n >= s.size {
			continue // census: no variance left
		}
		nEff := s.n
		sum := s.sums[b]
		sum.SubKahan(s.sums[j])
		sumsq := s.sumsqs[b]
		sumsq.AddKahan(s.sumsqs[j])
		sumsq.SubKahan(s.cross[j].Scaled(2))
		if d.priorUsable(s, b, j) {
			pe, f := priorEff(s.pN[b], s.n)
			nEff += pe
			sum.AddKahan(s.pSum[b].Scaled(f))
			sum.SubKahan(s.pSum[j].Scaled(f))
			sumsq.AddKahan(s.pSumsq[b].Scaled(f))
			sumsq.AddKahan(s.pSumsq[j].Scaled(f))
			sumsq.SubKahan(s.pCross[j].Scaled(2 * f))
		}
		var s2 float64
		if nEff >= 2 {
			s2, _ = stats.SampleVarFromKahanSums(sum, sumsq, nEff)
		} else {
			s2 = gVar
			if nEff == 0 {
				nEff = 1 // unsampled stratum: charge one phantom sample
			}
		}
		if haveBound && boundS2 > s2 {
			s2 = boundS2
		}
		W := float64(s.size)
		v += W * W * s2 / float64(nEff) * (1 - float64(s.n)/W)
	}
	return v
}

// bestChanged rebuilds the Σ c_best·c_j accumulators from the row history
// against the new incumbent. Each stratum and template accumulator sees
// its rows in fold order, so the Kahan sums match a fresh fold exactly.
func (d *deltaSampler) bestChanged() {
	b := d.best
	for _, s := range d.strata {
		clear(s.cross)
	}
	for t := range d.tCross {
		clear(d.tCross[t])
	}
	for c := d.rowWalk(); c.next(); {
		cb := c.costs[indexOf(c.cfgs, b)]
		cross, tCross := d.strata[d.stratumOf[c.tmpl]].cross, d.tCross[c.tmpl]
		for i, j := range c.cfgs {
			cross[j].AddProduct(cb, c.costs[i])
			tCross[j].AddProduct(cb, c.costs[i])
		}
	}
}

// nextSlot picks the stratum whose next sample shrinks the summed
// pairwise estimator variance the most (Section 5.2).
func (d *deltaSampler) nextSlot() (part, h int) {
	b, alive := d.best, d.aliveIdx
	bestH := -1
	var bestDrop float64
	for h, s := range d.strata {
		if s.exhausted() {
			continue
		}
		if s.n < 2 {
			return 0, h // strata without variance estimates first
		}
		var drop float64
		W := float64(s.size)
		for _, j := range alive {
			if j == b {
				continue
			}
			sum := s.sums[b]
			sum.SubKahan(s.sums[j])
			sumsq := s.sumsqs[b]
			sumsq.AddKahan(s.sumsqs[j])
			sumsq.SubKahan(s.cross[j].Scaled(2))
			s2, ok := stats.SampleVarFromKahanSums(sum, sumsq, s.n)
			if !ok {
				continue
			}
			n := float64(s.n)
			cur := W * W * s2 / n * (1 - n/W)
			nxt := W * W * s2 / (n + 1) * (1 - (n+1)/W)
			drop += cur - nxt
		}
		// Section 5.2: with non-constant optimization times, maximize the
		// variance reduction relative to the expected overhead.
		drop /= s.avgOver
		if bestH < 0 || drop > bestDrop {
			bestH, bestDrop = h, drop
		}
	}
	return 0, bestH
}

// splitTarget constrains Algorithm 2 by the alive configuration with the
// lowest pairwise Pr(CS) versus the incumbent (single ranking, Section
// 5.1's tractability simplification for Delta Sampling): the difference
// estimator of that pair must reach the variance at which the Bonferroni
// bound meets α.
func (d *deltaSampler) splitTarget() (int, float64, bool) {
	worst := d.worstPair()
	if worst < 0 {
		return 0, 0, false
	}
	d.splitWorst = worst
	gap := d.estimate(worst) - d.estimate(d.best)
	targetVar := stats.TargetVarianceForPrCS(gap, d.opts.Delta, d.perPairTarget())
	return 0, targetVar, !math.IsInf(targetVar, 1)
}

// splitStats stages stratum h's difference variance for the constraining
// pair and its per-template statistics, appended to buf; it truncates its
// contribution and reports false when some member template lacks
// observations.
func (d *deltaSampler) splitStats(_, h int, buf []tmplStat) (stats.Stratum, []tmplStat, bool) {
	s, w := d.strata[h], d.splitWorst
	sum := s.sums[d.best]
	sum.SubKahan(s.sums[w])
	sumsq := s.sumsqs[d.best]
	sumsq.AddKahan(s.sumsqs[w])
	sumsq.SubKahan(s.cross[w].Scaled(2))
	s2, _ := stats.SampleVarFromKahanSums(sum, sumsq, s.n)
	cur := stats.Stratum{Size: s.size, S2: s2, Taken: s.n}
	start := len(buf)
	for _, t := range s.templates {
		if d.tCount[t] < minTemplateObs {
			return cur, buf[:start], false
		}
		n := d.tCount[t]
		sum := d.tSum[t][d.best]
		sum.SubKahan(d.tSum[t][w])
		sumsq := d.tSumsq[t][d.best]
		sumsq.AddKahan(d.tSumsq[t][w])
		sumsq.SubKahan(d.tCross[t][w].Scaled(2))
		m := sum.Sum() / float64(n)
		v, _ := stats.SampleVarFromKahanSums(sum, sumsq, n)
		buf = append(buf, tmplStat{t: t, w: d.tmplSize(t), m: m, v: v})
	}
	return cur, buf, true
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
		s := &dStratum{
			stratum: stratum{templates: tmpls, size: size, pilotN: d.opts.NMin},
			sums:    make([]stats.Kahan, d.k),
			sumsqs:  make([]stats.Kahan, d.k),
			cross:   make([]stats.Kahan, d.k),
		}
		if parent.pN != nil {
			// A warm stratum's children keep the prior moments of their own
			// member templates.
			d.attachPrior(s)
		}
		return s
	}
	left, right := mk(leftTmpls), mk(rightTmpls)

	// Partition the remaining (unsampled) order, preserving its random
	// relative order within each child.
	for _, q := range parent.order[parent.next:] {
		tmpl := 0
		if d.opts.TemplateIndex != nil {
			tmpl = d.opts.TemplateIndex[q]
		}
		if inLeft[tmpl] {
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
			v := c.costs[i]
			child.sums[j].Add(v)
			child.sumsqs[j].AddProduct(v, v)
			child.cross[j].AddProduct(cb, v)
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

// templateStates returns per-template fresh moments with cross sums
// relative to the final best. Per-configuration counts come from the row
// history: a configuration eliminated mid-run stops accumulating, so its
// column is shorter than the shared row count.
func (d *deltaSampler) templateStates() []TemplateState {
	out := make([]TemplateState, len(d.tSum))
	for t := range out {
		out[t] = TemplateState{
			Counts: make([]int, d.k),
			Sum:    append([]stats.Kahan(nil), d.tSum[t]...),
			Sumsq:  append([]stats.Kahan(nil), d.tSumsq[t]...),
			Cross:  append([]stats.Kahan(nil), d.tCross[t]...),
		}
	}
	for c := d.rowWalk(); c.next(); {
		for _, j := range c.cfgs {
			out[c.tmpl].Counts[j]++
		}
	}
	return out
}
