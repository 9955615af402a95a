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
	fresh moments

	// prior holds a warm snapshot's moments of this configuration,
	// aggregated over member templates. They pool into the mean and
	// variance estimates; fresh samples alone drive exhaustion, census and
	// the finite-population correction.
	prior moments
}

// independentSampler is the Independent Sampling estimator (Section 4.1):
// one sample stream per configuration, and a per-configuration
// progressive stratification (Algorithm 2 runs only for the configuration
// the last sample was chosen from, as the paper prescribes).
type independentSampler struct {
	*driver

	strata [][]*icStratum // per configuration

	lastSampled int // configuration index of the last sample
}

func newIndependentSampler(o Oracle, opts Options) *independentSampler {
	dr := newDriver(o, opts)
	s := &independentSampler{driver: dr, strata: make([][]*icStratum, dr.k)}
	dr.start(s)
	return s
}

func (s *independentSampler) numStrata(j int) int         { return len(s.strata[j]) }
func (s *independentSampler) stratumAt(j, h int) *stratum { return &s.strata[j][h].stratum }

func (s *independentSampler) addStratum(j int, st stratum) *stratum {
	ics := &icStratum{stratum: st}
	if st.hasPrior {
		ics.prior = s.prior.column(st.templates, j)
	}
	s.strata[j] = append(s.strata[j], ics)
	return &ics.stratum
}

// dropped is a no-op: a degraded probe leaves only this configuration's
// stratum, and a split later regenerates member orders from the full
// population, giving a transiently-failing query a fresh chance.
func (s *independentSampler) dropped(int) {}

// fold records one sample of configuration sl.part's stratum sl.h.
func (s *independentSampler) fold(sl slot, out []float64) {
	j, c := sl.part, out[0]
	s.lastSampled = j
	s.strata[j][sl.h].fresh.add(c)
	s.tcols[s.opts.Templates.Of[sl.q]][j].add(c)
}

func (s *independentSampler) columns(j int, dst []stratMoments) []stratMoments {
	return s.pairs(j, true, dst)
}

// pairs is configuration j's own cost: the pair variance against the
// incumbent is the sum of the two estimators' variances (Equation 2).
func (s *independentSampler) pairs(j int, pooled bool, dst []stratMoments) []stratMoments {
	for _, st := range s.strata[j] {
		dst = append(dst, stratMoments{st.fresh, st.size, st.n})
		if pooled && st.hasPrior {
			dst[len(dst)-1].pool(&st.prior)
		}
	}
	return dst
}

func (s *independentSampler) priorPair(h, j int) (fresh, prior moments, priorVar bool) {
	st := s.strata[j][h]
	return st.fresh, st.prior, true
}

func (s *independentSampler) varianceDrop(j, h int) float64 {
	st := s.strata[j][h]
	return st.fresh.varianceDrop(st.size)
}

func (s *independentSampler) tmplMoments(t, j int) (moments, int) {
	return s.tcols[t][j], len(s.opts.Templates.Members[t])
}

func (s *independentSampler) tmplObs(j, t int) int { return s.tcols[t][j].n }

// bestChanged and syncCross are no-ops: Independent estimators carry no
// cross terms.
func (s *independentSampler) bestChanged() {}
func (s *independentSampler) syncCross()   {}

// splitPart refines the stratification of the configuration the last
// sample came from, while it is alive.
func (s *independentSampler) splitPart() (int, bool) {
	return s.lastSampled, s.alive[s.lastSampled]
}

// splitTarget: configuration ci's estimator must reach half of the pair
// target variance against the incumbent (the pair variance is the sum of
// two estimator variances in Equation 2) — against the worst alive pair
// when ci is the incumbent itself.
func (s *independentSampler) splitTarget(ci int) (j int, targetVar float64, ok bool) {
	other := s.best
	if ci == s.best {
		if other = s.worstPair(); other < 0 {
			return 0, 0, false
		}
	}
	gap := math.Abs(s.est[other] - s.est[s.best])
	targetVar = stats.TargetVarianceForPrCS(gap, s.opts.Delta, s.perPairTarget()) / 2
	return ci, targetVar, !math.IsInf(targetVar, 1)
}

// applySplit replaces configuration ci's stratum with its two children.
// The Independent sampler keeps no per-row history, so each child restarts
// its accumulators with a fresh member order and receives a fresh pilot —
// a conservative simplification that charges the split's cost explicitly.
// A warm stratum's children keep the prior moments of their own member
// templates.
func (s *independentSampler) applySplit(ci int, dec splitDecision) (int, int) {
	strata := s.strata[ci]
	parent := strata[dec.stratum]
	leftTmpls, rightTmpls := splitParts(parent.templates, dec)
	strata[dec.stratum] = strata[len(strata)-1]
	s.strata[ci] = strata[:len(strata)-1]
	left, right := s.newStratum(leftTmpls), s.newStratum(rightTmpls)
	left.hasPrior, right.hasPrior = parent.hasPrior, parent.hasPrior
	s.addStratum(ci, left)
	s.addStratum(ci, right)
	return len(s.strata[ci]) - 2, len(s.strata[ci]) - 1
}
