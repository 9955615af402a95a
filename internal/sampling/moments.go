package sampling

import (
	"math"

	"physdes/internal/stats"
)

// moments are the compensated power sums of n observations: Σx, Σx² and,
// for a Delta column, the cross sum Σ x_best·x against the incumbent. The
// two schemes differ only in how they form a stratum's moments of the
// variable they estimate — Delta Sampling differences the shared rows'
// columns, Independent Sampling takes a configuration's own column — so
// the estimate, Equation 5, the Section 5.2 allocation, the prior drift
// test and Algorithm 2's inputs are computed from this one value.
type moments struct {
	n                 int
	sum, sumsq, cross stats.Kahan
}

// stratMoments is one stratum's input to the estimate and Equation 5: its
// moments (fresh, or pooled with its prior), live size and fresh sample
// count.
type stratMoments struct {
	moments
	size, fresh int
}

// add folds in one observation.
//
//physdes:zeroalloc
func (m *moments) add(x float64) {
	m.n++
	m.sum.Add(x)
	m.sumsq.AddProduct(x, x)
}

// addRow folds in a Delta row's cost x in this column, given the
// incumbent's cost xb of the same row.
//
//physdes:zeroalloc
func (m *moments) addRow(xb, x float64) {
	m.add(x)
	m.cross.AddProduct(xb, x)
}

// merge folds another column's sums in.
//
//physdes:zeroalloc
func (m *moments) merge(o moments) {
	m.n += o.n
	m.sum.AddKahan(o.sum)
	m.sumsq.AddKahan(o.sumsq)
	m.cross.AddKahan(o.cross)
}

//physdes:zeroalloc
func (m *moments) mean() float64 { return m.sum.Sum() / float64(m.n) }

// variance is the unbiased sample variance; false below two observations.
//
//physdes:zeroalloc
func (m *moments) variance() (float64, bool) {
	return stats.SampleVarFromKahanSums(m.sum, m.sumsq, m.n)
}

// pool folds the warm prior p into m, the fresh moments, at its capped
// effective weight (priorEff).
//
//physdes:zeroalloc
func (m *moments) pool(p *moments) {
	if p.n <= 0 {
		return
	}
	pe, f := priorEff(p.n, m.n)
	m.n += pe
	m.sum.AddKahan(p.sum.Scaled(f))
	m.sumsq.AddKahan(p.sumsq.Scaled(f))
}

// setDiff sets m to the moments of the difference b − j over the rows of
// column j, whose cross sum is taken against b: Σ(b−j) and
// Σ(b−j)² = Σb² + Σj² − 2·Σb·j. The incumbent b covers every row an
// alive j does.
//
//physdes:zeroalloc
func (m *moments) setDiff(b, j *moments) {
	m.n, m.sum, m.sumsq = j.n, b.sum, b.sumsq
	m.sum.SubKahan(j.sum)
	m.sumsq.AddKahan(j.sumsq)
	m.sumsq.SubKahan(j.cross.Scaled(2))
}

// poolDiff folds the prior difference of columns b and j into m, fresh
// difference moments, at its effective weight. Each prior sum is scaled
// before it is differenced.
//
//physdes:zeroalloc
func (m *moments) poolDiff(b, j *moments) {
	pe, f := priorEff(b.n, m.n)
	m.n += pe
	m.sum.AddKahan(b.sum.Scaled(f))
	m.sum.SubKahan(j.sum.Scaled(f))
	m.sumsq.AddKahan(b.sumsq.Scaled(f))
	m.sumsq.AddKahan(j.sumsq.Scaled(f))
	m.sumsq.SubKahan(j.cross.Scaled(2 * f))
}

// varianceDrop is how much one more sample shrinks the Equation 5 term of
// a stratum of the given size with fresh moments m (Section 5.2); zero
// without a variance estimate.
//
//physdes:zeroalloc
func (m *moments) varianceDrop(size int) float64 {
	s2, ok := m.variance()
	if !ok {
		return 0
	}
	W, n := float64(size), float64(m.n)
	return stats.StratumVar(W, s2, n, n) - stats.StratumVar(W, s2, n+1, n+1)
}

// priorDrifted is the two-sample z-test of the prior consistency check:
// it reports whether the fresh and prior means disagree beyond
// priorDriftSigma standard errors. Without priorVar the prior's variance
// is unknown and the fresh one stands in. Fewer than two observations on
// either side stay inconclusive.
//
//physdes:zeroalloc
func priorDrifted(fresh, prior *moments, priorVar bool) bool {
	if fresh.n < 2 || prior.n < 2 {
		return false
	}
	fVar, _ := fresh.variance()
	pVar := fVar
	if priorVar {
		pVar, _ = prior.variance()
	}
	se := math.Sqrt(fVar/float64(fresh.n) + pVar/float64(prior.n))
	d := math.Abs(fresh.mean() - prior.mean())
	if se == 0 {
		return d != 0
	}
	return d > priorDriftSigma*se
}
