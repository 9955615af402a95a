package sampling

import (
	"math"

	"physdes/internal/stats"
)

// icStratum is one stratum of one configuration's stratification in the
// Independent sampler. Unlike Delta Sampling, every configuration draws
// its own sample and — per Section 5.1 — may maintain its own
// stratification of the workload.
type icStratum struct {
	stratum
	sum   stats.Kahan
	sumsq stats.Kahan

	// Prior moments from a warm snapshot, aggregated over member
	// templates. They pool into this configuration's mean and variance
	// estimates; fresh samples alone drive exhaustion, census and the
	// finite-population correction.
	hasPrior bool
	pN       int
	pSum     stats.Kahan
	pSumsq   stats.Kahan
}

// independentSampler is the Independent Sampling estimator (Section 4.1):
// one sample stream per configuration, and a per-configuration
// progressive stratification (Algorithm 2 runs only for the configuration
// the last sample was chosen from, as the paper prescribes).
type independentSampler struct {
	*driver

	strata [][]*icStratum // per configuration

	// Per-template per-configuration statistics for split decisions.
	tCount [][]int
	tSum   [][]stats.Kahan
	tSumsq [][]stats.Kahan

	lastSampled int // configuration index of the last sample
}

func newIndependentSampler(o Oracle, opts Options) *independentSampler {
	dr := newDriver(o, opts)
	k, tc := dr.k, max(opts.TemplateCount, 1)
	s := &independentSampler{
		driver: dr,
		strata: make([][]*icStratum, k),
		tCount: make([][]int, tc),
		tSum:   make([][]stats.Kahan, tc),
		tSumsq: make([][]stats.Kahan, tc),
	}
	for t := 0; t < tc; t++ {
		s.tCount[t] = make([]int, k)
		s.tSum[t] = make([]stats.Kahan, k)
		s.tSumsq[t] = make([]stats.Kahan, k)
	}
	dr.start(s)
	return s
}

func (s *independentSampler) numStrata(j int) int         { return len(s.strata[j]) }
func (s *independentSampler) stratumAt(j, h int) *stratum { return &s.strata[j][h].stratum }

func (s *independentSampler) addStratum(j int, st stratum) *stratum {
	ics := &icStratum{stratum: st}
	s.strata[j] = append(s.strata[j], ics)
	return &ics.stratum
}

func (s *independentSampler) seedPrior(j, h int) { s.reseedStratumPrior(j, s.strata[j][h]) }

// reseedStratumPrior aggregates the member templates' prior moments for
// configuration j into the stratum's prior accumulators — the
// moment-reseeding hot path of a warm resume and of warm-stratum splits.
//
//physdes:zeroalloc
func (s *independentSampler) reseedStratumPrior(j int, st *icStratum) {
	st.pN = 0
	st.pSum = stats.Kahan{}
	st.pSumsq = stats.Kahan{}
	for _, t := range st.templates {
		pn := s.prior.n[t]
		if pn == nil {
			continue
		}
		st.pN += pn[j]
		st.pSum.AddKahan(s.prior.sum[t][j])
		st.pSumsq.AddKahan(s.prior.sumsq[t][j])
	}
	st.hasPrior = true
}

// checkPriorDrift is the warm path's online safety net (see the Delta
// sampler's variant): every round, each stratum with enough fresh samples
// z-tests its prior mean against the fresh one and sheds the prior on
// disagreement.
//
//physdes:zeroalloc
func (s *independentSampler) checkPriorDrift() int {
	dropped := 0
	for j := 0; j < s.k; j++ {
		if !s.alive[j] {
			continue
		}
		for _, st := range s.strata[j] {
			if !st.hasPrior || st.n < priorCheckMinFresh {
				continue
			}
			if !priorMeansDiffer(st.sum, st.sumsq, st.n, st.pSum, st.pSumsq, st.pN) {
				continue
			}
			st.hasPrior = false
			st.pN = 0
			st.pSum = stats.Kahan{}
			st.pSumsq = stats.Kahan{}
			dropped++
		}
	}
	return dropped
}

// dropped is a no-op: a degraded probe leaves only this configuration's
// stratum, and a split later regenerates member orders from the full
// population, giving a transiently-failing query a fresh chance.
func (s *independentSampler) dropped(int) {}

// fold records one sample of configuration sl.part's stratum sl.h.
func (s *independentSampler) fold(sl slot, out []float64) {
	j, c := sl.part, out[0]
	st := s.strata[j][sl.h]
	s.lastSampled = j
	st.sum.Add(c)
	st.sumsq.AddProduct(c, c)
	tmpl := 0
	if s.opts.TemplateIndex != nil {
		tmpl = s.opts.TemplateIndex[sl.q]
	}
	s.tCount[tmpl][j]++
	s.tSum[tmpl][j].Add(c)
	s.tSumsq[tmpl][j].AddProduct(c, c)
}

// estimate returns X_j = Σ_h |WL_h|·mean_h over configuration j's strata,
// with the global-mean fallback for unsampled strata.
func (s *independentSampler) estimate(j int) float64 {
	var gSum stats.Kahan
	gN := 0
	for _, st := range s.strata[j] {
		gSum.AddKahan(st.sum)
		gN += st.n
		if st.hasPrior {
			pe, f := priorEff(st.pN, st.n)
			gSum.AddKahan(st.pSum.Scaled(f))
			gN += pe
		}
	}
	gMean := 0.0
	if gN > 0 {
		gMean = gSum.Sum() / float64(gN)
	}
	var x float64
	for _, st := range s.strata[j] {
		n := st.n
		sum := st.sum
		if st.hasPrior {
			pe, f := priorEff(st.pN, st.n)
			n += pe
			sum.AddKahan(st.pSum.Scaled(f))
		}
		if n > 0 {
			x += float64(st.size) * (sum.Sum() / float64(n))
		} else {
			x += float64(st.size) * gMean
		}
	}
	return x
}

// pairSEs: the two estimators are independent, so the pair variance is
// the sum of their variances (Equation 2).
func (s *independentSampler) pairSEs(se []float64) {
	vb := s.estVar(s.best)
	for _, j := range s.aliveIdx {
		if j != s.best {
			se[j] = sqrtPos(vb + s.estVar(j))
		}
	}
}

// estVar returns Var(X_j) per Equation 5 over configuration j's strata.
func (s *independentSampler) estVar(j int) float64 {
	var gSum, gSumsq stats.Kahan
	gN := 0
	for _, st := range s.strata[j] {
		gSum.AddKahan(st.sum)
		gSumsq.AddKahan(st.sumsq)
		gN += st.n
		if st.hasPrior {
			pe, f := priorEff(st.pN, st.n)
			gSum.AddKahan(st.pSum.Scaled(f))
			gSumsq.AddKahan(st.pSumsq.Scaled(f))
			gN += pe
		}
	}
	gVar, _ := stats.SampleVarFromKahanSums(gSum, gSumsq, gN)
	boundS2, haveBound := 0.0, false
	if bound := s.opts.VarianceBound; bound != nil {
		boundS2, haveBound = bound([2]int{j, j}, gN)
	}
	if haveBound && boundS2 > gVar {
		gVar = boundS2
	}
	var v float64
	for _, st := range s.strata[j] {
		if st.n >= st.size {
			continue
		}
		nEff := st.n
		sum := st.sum
		sumsq := st.sumsq
		if st.hasPrior {
			pe, f := priorEff(st.pN, st.n)
			nEff += pe
			sum.AddKahan(st.pSum.Scaled(f))
			sumsq.AddKahan(st.pSumsq.Scaled(f))
		}
		var s2 float64
		if nEff >= 2 {
			s2, _ = stats.SampleVarFromKahanSums(sum, sumsq, nEff)
		} else {
			s2 = gVar
			if nEff == 0 {
				nEff = 1
			}
		}
		if haveBound && boundS2 > s2 {
			s2 = boundS2
		}
		W := float64(st.size)
		v += W * W * s2 / float64(nEff) * (1 - float64(st.n)/W)
	}
	return v
}

// bestChanged is a no-op: Independent estimators carry no cross terms.
func (s *independentSampler) bestChanged() {}

// nextSlot picks the (configuration, stratum) pair whose extra sample
// most reduces Σᵢ Var(Xᵢ) per unit of optimization overhead (Section
// 5.2).
func (s *independentSampler) nextSlot() (j, h int) {
	bestJ, bestH := -1, -1
	var bestDrop float64
	for ji := 0; ji < s.k; ji++ {
		if !s.alive[ji] {
			continue
		}
		for hi, st := range s.strata[ji] {
			if st.exhausted() {
				continue
			}
			if st.n < 2 {
				return ji, hi
			}
			s2, ok := stats.SampleVarFromKahanSums(st.sum, st.sumsq, st.n)
			if !ok {
				continue
			}
			W := float64(st.size)
			n := float64(st.n)
			cur := W * W * s2 / n * (1 - n/W)
			nxt := W * W * s2 / (n + 1) * (1 - (n+1)/W)
			drop := (cur - nxt) / st.avgOver
			if bestJ < 0 || drop > bestDrop {
				bestJ, bestH, bestDrop = ji, hi, drop
			}
		}
	}
	return bestJ, bestH
}

// splitTarget refines the stratification of the configuration the last
// sample came from. Its estimator must reach half of the pair target
// variance against the incumbent (the pair variance is the sum of two
// estimator variances in Equation 2) — against the worst alive pair when
// it is the incumbent itself.
func (s *independentSampler) splitTarget() (int, float64, bool) {
	ci := s.lastSampled
	if !s.alive[ci] {
		return 0, 0, false
	}
	other := s.best
	if ci == s.best {
		if other = s.worstPair(); other < 0 {
			return 0, 0, false
		}
	}
	gap := math.Abs(s.estimate(other) - s.estimate(s.best))
	targetVar := stats.TargetVarianceForPrCS(gap, s.opts.Delta, s.perPairTarget()) / 2
	return ci, targetVar, !math.IsInf(targetVar, 1)
}

// splitStats stages configuration ci's stratum h and its per-template
// statistics, appended to buf; it truncates its contribution and reports
// false when some member template lacks observations.
func (s *independentSampler) splitStats(ci, h int, buf []tmplStat) (stats.Stratum, []tmplStat, bool) {
	st := s.strata[ci][h]
	s2, _ := stats.SampleVarFromKahanSums(st.sum, st.sumsq, st.n)
	cur := stats.Stratum{Size: st.size, S2: s2, Taken: st.n}
	start := len(buf)
	for _, t := range st.templates {
		if s.tCount[t][ci] < minTemplateObs {
			return cur, buf[:start], false
		}
		n := s.tCount[t][ci]
		m := s.tSum[t][ci].Sum() / float64(n)
		v, _ := stats.SampleVarFromKahanSums(s.tSum[t][ci], s.tSumsq[t][ci], n)
		buf = append(buf, tmplStat{t: t, w: s.pop.templateSize(t), m: m, v: v})
	}
	return cur, buf, true
}

// applySplit replaces configuration ci's stratum with its two children.
// The Independent sampler keeps no per-row history, so each child restarts
// its accumulators with a fresh member order and receives a fresh pilot —
// a conservative simplification that charges the split's cost explicitly.
func (s *independentSampler) applySplit(ci int, dec splitDecision) (int, int) {
	strata := s.strata[ci]
	parent := strata[dec.stratum]
	leftTmpls, rightTmpls, _ := splitParts(parent.templates, dec)
	strata[dec.stratum] = strata[len(strata)-1]
	s.strata[ci] = strata[:len(strata)-1]
	s.addStratum(ci, s.newStratum(leftTmpls))
	s.addStratum(ci, s.newStratum(rightTmpls))
	left, right := len(s.strata[ci])-2, len(s.strata[ci])-1
	if parent.hasPrior {
		// A warm stratum's children keep the prior moments of their own
		// member templates.
		s.seedPrior(ci, left)
		s.seedPrior(ci, right)
	}
	return left, right
}

// templateStates returns per-template fresh tallies and moments.
func (s *independentSampler) templateStates() []TemplateState {
	out := make([]TemplateState, len(s.tSum))
	for t := range out {
		out[t] = TemplateState{
			Counts: append([]int(nil), s.tCount[t]...),
			Sum:    append([]stats.Kahan(nil), s.tSum[t]...),
			Sumsq:  append([]stats.Kahan(nil), s.tSumsq[t]...),
		}
	}
	return out
}
