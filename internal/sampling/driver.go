package sampling

import (
	"errors"
	"math"
	"slices"

	"physdes/internal/obs"
	"physdes/internal/stats"
)

// stratum is the part of a stratum the driver schedules from: template
// membership, the permuted sampling order and the live counts. Each
// estimator embeds it in its own stratum type next to its accumulators.
type stratum struct {
	templates []int
	size      int   // live population: members minus degraded queries
	order     []int // permuted unsampled query indices
	next      int
	n         int
	avgOver   float64 // mean optimization overhead of member queries
	pilotN    int     // pilot target (NMin cold, the warm pilot share for reused strata)
	hasPrior  bool    // seeded from a warm snapshot, until the drift test sheds it
	covered   int     // leading templates known to hold minTemplateObs fresh observations
}

func (s *stratum) exhausted() bool { return s.next >= len(s.order) }

// slot is one unit of evaluation: query q of stratum h in stratification
// part. Delta Sampling keeps one stratification shared by every
// configuration, so a slot is a row — q under every alive configuration.
// Independent Sampling keeps one stratification per configuration, so a
// slot is one sample of q under configuration part.
type slot struct{ part, h, q int }

// estimator is what differs between the two sampling schemes: how a
// stratum's samples are stored and folded, and how its moments of the
// estimated variable are formed — Delta Sampling differences the shared
// rows' columns against the incumbent, Independent Sampling takes a
// configuration's own column — plus which stratification Algorithm 2
// refines and how a split rebuilds its children. The driver computes the
// estimate, Equation 5, the Section 5.2 allocation, the prior drift test
// and Algorithm 2's inputs from those moments, and owns everything else.
//
// The strata below are those of the stratification configuration j's
// estimate rides on (part 0 for Delta, part j for Independent).
type estimator interface {
	numStrata(part int) int
	stratumAt(part, h int) *stratum
	// addStratum appends a stratum built from st to stratification part,
	// seeding its prior moments when st.hasPrior.
	addStratum(part int, st stratum) *stratum

	// fold records a slot's costs, one per evaluated pair; dropped notes
	// that query q degraded out of the run.
	fold(sl slot, costs []float64)
	dropped(q int)

	// columns appends, per stratum, the moments of configuration j's cost
	// pooled with the stratum's prior: X_j's estimate.
	columns(j int, dst []stratMoments) []stratMoments
	// pairs appends, per stratum, the moments of the variable whose
	// variance enters the standard error of X_j − X_best; pooled folds in
	// the prior where it composes.
	pairs(j int, pooled bool, dst []stratMoments) []stratMoments
	// priorPair returns stratum h's fresh and prior moments of that
	// variable, and whether the prior's variance is known.
	priorPair(h, j int) (fresh, prior moments, priorVar bool)
	// varianceDrop is how much one more sample of stratum h of part
	// shrinks the summed pairwise estimator variance.
	varianceDrop(part, h int) float64
	// tmplMoments is template t's fresh moments of pairs' variable and the
	// template's live weight, for Algorithm 2.
	tmplMoments(t, j int) (moments, int)
	// tmplObs is the observation count n of those moments for any
	// configuration whose pair constrains stratification part's split: it
	// only grows, and reading it brings no cross sum up to date.
	tmplObs(part, t int) int
	// bestChanged follows a new incumbent; syncCross brings every cross
	// sum it left stale up to date.
	bestChanged()
	syncCross()

	// splitPart picks the stratification Algorithm 2 refines; splitTarget
	// picks the configuration j whose pair constrains that
	// stratification's split and the variance its estimator must reach.
	// The driver forms the target only once some stratum can split.
	// applySplit replaces the decision's stratum with its two children
	// and returns their indices.
	splitPart() (part int, ok bool)
	splitTarget(part int) (j int, targetVar float64, ok bool)
	applySplit(part int, dec splitDecision) (left, right int)
}

// driver runs Algorithm 1 over an estimator: the pilot, the round loop
// with its stopping rules, evaluation and degradation, Pr(CS) by the
// Bonferroni bound (Equation 3), elimination, Algorithm 2's split search,
// warm-start bookkeeping and the Result.
type driver struct {
	o    Oracle
	opts Options
	e    estimator

	k int
	// shared is true for Delta Sampling: one stratification (parts == 1)
	// whose slots cost every alive configuration.
	shared bool
	parts  int

	alive      []bool
	aliveIdx   []int // alive configurations in index order
	aliveCount int
	elimPen    float64 // Σ (1 − Pr(CS)) at elimination time

	best     int
	sampled  int
	degraded int // queries degraded out of the run (ErrSkipQuery)
	splits   int

	// Warm-start state: the snapshot's winner as a current configuration
	// index (-1 cold) and its per-template moments.
	priorBest int
	prior     tmplPrior
	winfo     WarmInfo

	// tcols holds each template's fresh moments per configuration, for
	// Algorithm 2 and state capture.
	tcols [][]moments

	met     samplerMetrics
	split   splitScratch   // reusable split-search buffers
	est     []float64      // alive configurations' estimates, set by chooseBest
	pairBuf []float64      // pairwise Pr(CS) against the incumbent, set by prCS
	mbuf    []stratMoments // reusable per-stratum moments buffer

	// Evaluation scratch, reused by every batch.
	one   [1]slot
	pairs []Pair
	out   []float64
	errs  []error
}

func newDriver(o Oracle, opts Options) *driver {
	k := o.K()
	d := &driver{
		o: o, opts: opts,
		k:          k,
		shared:     opts.Scheme == Delta,
		parts:      k,
		alive:      make([]bool, k),
		aliveIdx:   make([]int, k),
		aliveCount: k,
		priorBest:  -1,
		est:        make([]float64, k),
		pairBuf:    make([]float64, k),
		met:        newSamplerMetrics(opts.Metrics),
	}
	if d.shared {
		d.parts = 1
	}
	d.tcols = make([][]moments, len(opts.Templates.Members))
	for t := range d.tcols {
		d.tcols[t] = make([]moments, k)
	}
	for j := range d.alive {
		d.alive[j] = true
		d.aliveIdx[j] = j
	}
	return d
}

// start attaches the estimator and builds the initial stratification:
// resumed from a compatible warm snapshot, otherwise cold.
func (d *driver) start(e estimator) {
	d.e = e
	if wr := planWarm(d.opts.WarmState, &d.opts, d.opts.Scheme, d.k); wr != nil {
		d.initWarm(wr)
		return
	}
	for part := 0; part < d.parts; part++ {
		for _, tmpls := range initialTemplates(d.opts.Templates.Members, d.opts.Strat) {
			e.addStratum(part, d.newStratum(tmpls))
		}
	}
}

// newStratum builds a stratum over the templates' members in a fresh
// random order: a copy of the shared members, shuffled.
func (d *driver) newStratum(templates []int) stratum {
	members := d.opts.Templates.Members
	n := 0
	for _, t := range templates {
		n += len(members[t])
	}
	order := make([]int, 0, n)
	for _, t := range templates {
		order = append(order, members[t]...)
	}
	d.opts.RNG.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return stratum{
		templates: templates,
		size:      len(order),
		order:     order,
		avgOver:   d.avgOverhead(order),
		pilotN:    d.opts.NMin,
	}
}

// avgOverhead is the mean per-call optimization overhead of the queries
// (1 when no CallCost model is configured).
func (d *driver) avgOverhead(queries []int) float64 {
	if d.opts.CallCost == nil || len(queries) == 0 {
		return 1
	}
	var sum float64
	for _, q := range queries {
		sum += d.opts.CallCost(q)
	}
	avg := sum / float64(len(queries))
	if avg <= 0 {
		return 1
	}
	return avg
}

// initWarm seeds the run from a decoded snapshot: the snapshot's winner
// as the starting incumbent (Delta's prior cross sums are relative to
// it), prior per-template moments, then each stratification's snapshot
// strata (known templates only) with reduced pilots and reseeded prior
// moments, plus fresh strata for the remaining templates.
func (d *driver) initWarm(wr *warmResume) {
	d.priorBest = wr.best
	if wr.best >= 0 {
		d.best = wr.best
	}
	d.prior = wr.templatePriors(len(d.opts.Templates.Members), d.k, d.shared)
	reusedTotal := 0
	for part := 0; part < d.parts; part++ {
		pi := 0
		if !d.shared {
			pi = wr.cfgMap[part]
		}
		groups, reused := wr.groupsFor(pi, d.opts.Templates.Members, d.opts.Strat)
		sizes := make([]int, 0, reused)
		for gi, tmpls := range groups {
			st := d.newStratum(tmpls)
			if gi < reused {
				st.hasPrior = true
				sizes = append(sizes, st.size)
			}
			d.e.addStratum(part, st)
		}
		// The reused strata come first in the stratification.
		for h, pilot := range warmPilotAlloc(sizes, d.opts.NMin) {
			st := d.e.stratumAt(part, h)
			st.pilotN = pilot
			if saved := min(d.opts.NMin, st.size) - min(st.pilotN, st.size); saved > 0 {
				d.winfo.PilotSaved += saved
			}
		}
		reusedTotal += reused
	}
	d.winfo.Started = true
	d.winfo.StrataReused = reusedTotal
	d.winfo.TemplatesKnown = wr.known
	d.winfo.TemplatesFresh = wr.fresh
	d.met.warmStarts.Inc()
	d.met.warmStrata.Add(int64(reusedTotal))
	d.met.warmPilotSaved.Add(int64(d.winfo.PilotSaved))
	if tr := d.opts.Tracer; tr.Enabled() {
		tr.Emit("warm",
			obs.KV{Key: "strata_reused", Value: reusedTotal},
			obs.KV{Key: "templates_known", Value: wr.known},
			obs.KV{Key: "templates_fresh", Value: wr.fresh},
			obs.KV{Key: "pilot_saved", Value: d.winfo.PilotSaved})
	}
}

// dropDriftedPriors is the warm path's online safety net: every round,
// each live stratum with a prior and enough fresh samples z-tests the
// prior mean of every variable the selection rides on against the fresh
// one and sheds the whole stratum prior on disagreement. For Delta those
// variables are the differences best − j, not per-configuration costs:
// correlated costs make the difference variance orders of magnitude
// smaller than the within-stratum cost variance, so drift invisible at
// the cost scale is glaring at the difference scale. A snapshot that
// described a different cost distribution (drift the parameter
// signatures missed) would otherwise pull the pooled estimates —
// confidently — toward the previous run's winner.
func (d *driver) dropDriftedPriors() {
	dropped := 0
	for part := 0; part < d.parts; part++ {
		if !d.live(part) {
			continue
		}
		for h := 0; h < d.e.numStrata(part); h++ {
			st := d.e.stratumAt(part, h)
			if st.hasPrior && st.n >= priorCheckMinFresh && d.stratumDrifted(part, h) {
				st.hasPrior = false
				dropped++
			}
		}
	}
	if dropped > 0 {
		d.winfo.PriorDropped += dropped
		d.met.warmPriorDrop.Add(int64(dropped))
	}
}

// stratumDrifted reports whether stratum h of part contradicts its prior:
// Independent's one configuration, or any of Delta's pairs against the
// incumbent.
func (d *driver) stratumDrifted(part, h int) bool {
	if !d.shared {
		return d.varDrifted(h, part)
	}
	for _, j := range d.aliveIdx {
		if j != d.best && d.varDrifted(h, j) {
			return true
		}
	}
	return false
}

func (d *driver) varDrifted(h, j int) bool {
	fresh, prior, priorVar := d.e.priorPair(h, j)
	return priorDrifted(&fresh, &prior, priorVar)
}

// slotCalls is the optimizer calls one slot costs.
func (d *driver) slotCalls() int {
	if d.shared {
		return d.aliveCount
	}
	return 1
}

// budgetLeft reports whether another slot fits the call budget.
func (d *driver) budgetLeft() bool {
	return d.opts.MaxCalls <= 0 || d.o.Calls()+int64(d.slotCalls()) <= d.opts.MaxCalls
}

// evaluate costs the slots in one batch and folds them in slot order.
// A hard error aborts the run and wins over any skip request of the same
// slot; a skip request (ErrSkipQuery) degrades the whole slot — Delta
// Sampling shares a row across configurations, so a partial row would
// corrupt the difference estimator's cross terms — dropping the query
// from its stratum and shrinking the stratum weight.
func (d *driver) evaluate(slots []slot) error {
	d.pairs = d.pairs[:0]
	for _, sl := range slots {
		if !d.shared {
			d.pairs = append(d.pairs, Pair{Q: sl.q, J: sl.part})
			continue
		}
		for _, j := range d.aliveIdx {
			d.pairs = append(d.pairs, Pair{Q: sl.q, J: j})
		}
	}
	d.out = grow(d.out, len(d.pairs))
	d.errs = grow(d.errs, len(d.pairs))
	costBatch(d.o, d.pairs, d.out, d.errs)
	w := d.slotCalls()
	for i, sl := range slots {
		st := d.e.stratumAt(sl.part, sl.h)
		st.next++
		skip := false
		for _, err := range d.errs[i*w : (i+1)*w] {
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrSkipQuery) {
				return err
			}
			skip = true
		}
		if skip {
			st.size--
			d.degraded++
			d.e.dropped(sl.q)
			continue
		}
		st.n++
		d.sampled++
		d.met.samples.Inc()
		d.e.fold(sl, d.out[i*w:(i+1)*w])
	}
	return nil
}

// draw evaluates the next query of stratum h in stratification part. The
// bool reports progress (a query was consumed — sampled or degraded); a
// non-nil error aborts the run.
func (d *driver) draw(part, h int) (bool, error) {
	st := d.e.stratumAt(part, h)
	if st.exhausted() || !d.budgetLeft() {
		return false, nil
	}
	d.one[0] = slot{part: part, h: h, q: st.order[st.next]}
	if err := d.evaluate(d.one[:]); err != nil {
		return false, err
	}
	return true, nil
}

// pilot runs the pilot phase: each stratum's pilot target (clamped to its
// size and the budget), evaluated as one batch. Strata are filled
// round-robin in a shuffled order so a budget-truncated pilot (fixed-budget
// mode with many strata) covers a random subset of every stratum instead
// of completing some strata and leaving others untouched — the latter
// would bias the estimator systematically across Monte-Carlo runs. Delta
// shuffles its strata; Independent shuffles its configurations and visits
// each one's strata in order.
func (d *driver) pilot() error {
	var cycle []slot
	if d.shared {
		for _, h := range d.opts.RNG.Perm(d.e.numStrata(0)) {
			cycle = append(cycle, slot{h: h})
		}
	} else {
		for _, j := range d.opts.RNG.Perm(d.k) {
			for h := 0; h < d.e.numStrata(j); h++ {
				cycle = append(cycle, slot{part: j, h: h})
			}
		}
	}
	// Every configuration is alive during the pilot, so each slot's cost
	// in calls is known up front and the budget check needs no probes.
	var schedule []slot
	taken := make([]int, len(cycle))
	calls, per := d.o.Calls(), int64(d.slotCalls())
outer:
	for {
		progress := false
		for i, c := range cycle {
			st := d.e.stratumAt(c.part, c.h)
			if taken[i] >= min(st.pilotN, st.size) {
				continue
			}
			if d.opts.MaxCalls > 0 && calls+per > d.opts.MaxCalls {
				break outer // the budget only shrinks: no later slot fits either
			}
			schedule = append(schedule, slot{part: c.part, h: c.h, q: st.order[taken[i]]})
			taken[i]++
			calls += per
			progress = true
		}
		if !progress {
			break
		}
	}
	if err := d.opts.ctxErr(); err != nil {
		return err
	}
	return d.evaluate(schedule)
}

// run executes Algorithm 1 and returns the result.
func (d *driver) run() (*Result, error) {
	tr := d.opts.Tracer
	if err := d.pilot(); err != nil {
		return nil, err
	}
	d.dropDriftedPriors()
	d.chooseBest()
	if tr.Enabled() {
		kv := [...]obs.KV{
			{Key: "samples", Value: d.sampled},
			{Key: "calls", Value: d.o.Calls()},
			{Key: "strata", Value: d.e.numStrata(0)},
		}
		if d.shared {
			tr.Emit("pilot.done", kv[:]...)
		} else {
			tr.Emit("pilot.done", kv[:2]...)
		}
	}

	round := 0
	stable := 0
	p := d.prCS()
	for {
		round++
		d.met.rounds.Inc()
		var sw obs.Stopwatch
		if d.met.roundSeconds != nil {
			sw = obs.NewStopwatch()
		}
		if err := d.opts.ctxErr(); err != nil {
			return nil, err
		}
		if tr.Enabled() {
			d.emitRound(round, p, stable)
		}
		if d.opts.MaxCalls <= 0 {
			if p > d.opts.Alpha && d.sampled >= d.opts.MinSamples {
				stable++
				if stable >= d.opts.StabilityWindow {
					break
				}
			} else {
				stable = 0
			}
		}
		d.eliminate()
		if err := d.maybeSplit(); err != nil {
			return nil, err
		}
		part, h := d.nextSlot()
		if h < 0 {
			break // exhausted workload
		}
		progress, err := d.draw(part, h)
		if err != nil {
			return nil, err
		}
		if !progress {
			break // exhausted workload or budget
		}
		if tr.Enabled() {
			st := d.e.stratumAt(part, h)
			kv := [...]obs.KV{
				{Key: "config", Value: part},
				{Key: "stratum", Value: h},
				{Key: "stratum_n", Value: st.n},
				{Key: "stratum_size", Value: st.size},
			}
			if d.shared {
				tr.Emit("alloc", kv[1:]...)
			} else {
				tr.Emit("alloc", kv[:]...)
			}
		}
		d.dropDriftedPriors()
		d.chooseBest()
		p = d.prCS()
		if d.met.roundSeconds != nil {
			d.met.roundSeconds.Observe(sw.Elapsed().Seconds())
		}
	}

	if d.exhaustedAll() && d.degraded == 0 {
		p = 1 // full census: the selection is exact
	}
	strata := 0
	for part := 0; part < d.parts; part++ {
		strata = max(strata, d.e.numStrata(part))
	}
	eliminated := make([]bool, d.k)
	for j := range eliminated {
		eliminated[j] = !d.alive[j]
	}
	return &Result{
		Best:            d.best,
		PrCS:            p,
		SampledQueries:  d.sampled,
		OptimizerCalls:  d.o.Calls(),
		Eliminated:      eliminated,
		Strata:          strata,
		Splits:          d.splits,
		DegradedQueries: d.degraded,
		State:           d.captureState(),
		Warm:            d.winfo,
	}, nil
}

// emitRound traces one round; Delta rounds also report the shared
// stratification's shape.
func (d *driver) emitRound(round int, p float64, stable int) {
	kv := [...]obs.KV{
		{Key: "round", Value: round},
		{Key: "samples", Value: d.sampled},
		{Key: "calls", Value: d.o.Calls()},
		{Key: "prcs", Value: p},
		{Key: "best", Value: d.best},
		{Key: "alive", Value: d.aliveCount},
		{Key: "strata", Value: d.e.numStrata(0)},
		{Key: "splits", Value: d.splits},
		{Key: "stable", Value: stable},
	}
	if d.shared {
		d.opts.Tracer.Emit("round", kv[:]...)
		return
	}
	kv[6] = kv[8] // drop strata and splits, keep stable last
	d.opts.Tracer.Emit("round", kv[:7]...)
}

// live reports whether stratification part still samples: Delta's shared
// one always, an Independent configuration's while it is alive.
func (d *driver) live(part int) bool { return d.shared || d.alive[part] }

// nextSlot picks the live, unexhausted stratum the next sample comes from
// (h < 0: none). EqualAlloc keeps per-stratum counts level: the first
// stratum with the fewest samples. Otherwise strata without a variance
// estimate go first, then the stratum whose next sample shrinks the
// summed pairwise estimator variance the most per unit of optimization
// overhead (Section 5.2, with non-constant optimization times).
func (d *driver) nextSlot() (part, h int) {
	if p, i, lone := d.loneSlot(); lone {
		return p, i
	}
	part, h = -1, -1
	var best float64
	for p := 0; p < d.parts; p++ {
		if !d.live(p) {
			continue
		}
		for i := 0; i < d.e.numStrata(p); i++ {
			st := d.e.stratumAt(p, i)
			if st.exhausted() {
				continue
			}
			var score float64
			switch {
			case d.opts.Strat == EqualAlloc:
				score = -float64(st.n)
			case st.n < 2:
				return p, i
			default:
				score = d.e.varianceDrop(p, i) / st.avgOver
			}
			if h < 0 || score > best {
				part, h, best = p, i, score
			}
		}
	}
	return part, h
}

// loneSlot returns the only live, unexhausted stratum (lone true), or
// lone false when there are several: a lone candidate is nextSlot's pick
// under every rule, so it needs no score. With none, it returns h < 0 and
// lone true.
func (d *driver) loneSlot() (part, h int, lone bool) {
	part, h = -1, -1
	for p := 0; p < d.parts; p++ {
		if !d.live(p) {
			continue
		}
		for i := 0; i < d.e.numStrata(p); i++ {
			if d.e.stratumAt(p, i).exhausted() {
				continue
			}
			if h >= 0 {
				return -1, -1, false
			}
			part, h = p, i
		}
	}
	return part, h, true
}

// exhaustedAll reports whether every live stratification sampled its
// whole population.
func (d *driver) exhaustedAll() bool {
	for part := 0; part < d.parts; part++ {
		if !d.live(part) {
			continue
		}
		for h := 0; h < d.e.numStrata(part); h++ {
			if !d.e.stratumAt(part, h).exhausted() {
				return false
			}
		}
	}
	return true
}

// prCS computes the multi-way probability of correct selection via the
// Bonferroni bound (Equation 3), folding in the frozen penalty of
// eliminated configurations. It reads the estimates of the last
// chooseBest and leaves the pairwise probabilities in d.pairBuf; both stay
// valid until the next sample, since elimination only removes
// configurations.
//
// Delta's difference estimator carries each pair's variance directly;
// Independent's two estimators are independent, so the pair variance is
// the sum of their variances (Equation 2).
func (d *driver) prCS() float64 {
	xb := d.est[d.best]
	pair := d.pairBuf
	clear(pair)
	vb := 0.0
	if !d.shared {
		vb = d.variance(d.best)
	}
	p := 1 - d.elimPen
	for _, j := range d.aliveIdx {
		if j == d.best {
			continue
		}
		gap := d.est[j] - xb
		pij := stats.PairwisePrCS(gap, d.opts.Delta, sqrtPos(vb+d.variance(j)))
		pair[j] = pij
		p -= 1 - pij
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// estimate returns X_j = Σ_h |WL_h|·mean_h over the strata of X_j's
// stratification, each mean pooled with its stratum's prior. Strata
// without samples fall back to the global mean — unbiased strata-wise
// coverage is exactly what fine stratification at small sample sizes
// lacks (Figure 2). The global mean is formed only when a stratum reads
// it.
func (d *driver) estimate(j int) float64 {
	d.mbuf = d.e.columns(j, d.mbuf[:0])
	gMean, haveG := 0.0, false
	var x float64
	for h := range d.mbuf {
		sm := &d.mbuf[h]
		var mean float64
		if sm.n > 0 {
			mean = sm.mean()
		} else {
			if !haveG {
				if g := pooled(d.mbuf); g.n > 0 {
					gMean = g.mean()
				}
				haveG = true
			}
			mean = gMean
		}
		x += float64(sm.size) * mean
	}
	return x
}

// pooled merges every stratum's moments into the global ones.
func pooled(ms []stratMoments) moments {
	var g moments
	for h := range ms {
		g.merge(ms[h].moments)
	}
	return g
}

// variance returns the Equation 5 variance of the stratified estimator of
// pairs' variable for configuration j. A stratum with fewer than two
// samples takes the global s² (charged one phantom sample when
// unsampled), a census stratum has no variance left, and a conservative
// σ²_max bound (Section 6.2) replaces any smaller sample variance, per
// stratum and in the fallback. The global s² is formed only when a
// stratum falls back to it.
func (d *driver) variance(j int) float64 {
	d.mbuf = d.e.pairs(j, true, d.mbuf[:0])
	boundS2, haveBound := 0.0, false
	if bound := d.opts.VarianceBound; bound != nil {
		gn := 0
		for h := range d.mbuf {
			gn += d.mbuf[h].n
		}
		boundS2, haveBound = bound(gn)
	}
	gVar, haveG := 0.0, false
	var v float64
	for h := range d.mbuf {
		sm := &d.mbuf[h]
		if sm.fresh >= sm.size {
			continue // census: no variance left
		}
		n := sm.n
		s2, ok := sm.variance()
		if !ok {
			if !haveG {
				g := pooled(d.mbuf)
				gVar, _ = g.variance()
				haveG = true
				if haveBound && boundS2 > gVar {
					gVar = boundS2
				}
			}
			s2 = gVar
			n = max(n, 1)
		}
		if haveBound && boundS2 > s2 {
			s2 = boundS2
		}
		v += stats.StratumVar(float64(sm.size), s2, float64(n), float64(sm.fresh))
	}
	return v
}

// chooseBest forms every alive configuration's estimate into d.est and
// re-selects the one with the smallest, notifying the estimator when the
// incumbent changes. The rest of the round reads d.est.
func (d *driver) chooseBest() {
	best := -1
	var bx float64
	for _, j := range d.aliveIdx {
		x := d.estimate(j)
		d.est[j] = x
		if best < 0 || x < bx {
			best, bx = j, x
		}
	}
	if best < 0 || best == d.best {
		return
	}
	d.best = best
	d.e.bestChanged()
}

// eliminate drops configurations whose pairwise Pr(CS), as the round's
// prCS left it in d.pairBuf, exceeds the threshold (Section 5's large-k
// optimization). Elimination is irreversible, so it is deferred until the
// estimates rest on at least twice the pilot sample of every
// stratification — a pilot-only fluke in
// a heavy-tailed cost distribution must not evict the true best
// configuration.
//
// Each elimination freezes its 1 − p_ij into elimPen for the rest of the
// run, so the threshold is EliminationThreshold tightened to
// 1 − (1 − α)/(k − 1): at most k − 1 charges, each below (1 − α)/(k − 1),
// keep elimPen under 1 − α. A lone survivor's Pr(CS) = 1 − elimPen then
// exceeds α, and the stability window ends the run instead of a census.
func (d *driver) eliminate() {
	th := d.opts.EliminationThreshold
	if th <= 0 || d.sampled < 2*d.opts.NMin*d.parts {
		return
	}
	th = max(th, 1-(1-d.opts.Alpha)/float64(d.k-1))
	pair := d.pairBuf
	for _, j := range d.aliveIdx {
		if j == d.best {
			continue
		}
		if pair[j] > th {
			d.alive[j] = false
			d.aliveCount--
			d.elimPen += 1 - pair[j]
			d.met.eliminations.Inc()
			if tr := d.opts.Tracer; tr.Enabled() {
				tr.Emit("eliminate",
					obs.KV{Key: "config", Value: j},
					obs.KV{Key: "pair_prcs", Value: pair[j]},
					obs.KV{Key: "alive", Value: d.aliveCount})
			}
		}
	}
	if d.aliveCount < len(d.aliveIdx) {
		live := d.aliveIdx[:0]
		for _, j := range d.aliveIdx {
			if d.alive[j] {
				live = append(live, j)
			}
		}
		d.aliveIdx = live
	}
}

// worstPair returns the alive configuration with the lowest pairwise
// Pr(CS) against the incumbent, -1 when the incumbent is alone. It reads
// the pairwise probabilities the round's prCS left in d.pairBuf.
func (d *driver) worstPair() int {
	worst, worstP := -1, 2.0
	for _, j := range d.aliveIdx {
		if j == d.best {
			continue
		}
		if d.pairBuf[j] < worstP {
			worst, worstP = j, d.pairBuf[j]
		}
	}
	return worst
}

// perPairTarget is the pairwise Pr(CS) each alive pair must reach for the
// Bonferroni bound to meet α.
func (d *driver) perPairTarget() float64 {
	return 1 - (1-d.opts.Alpha)/float64(max(d.aliveCount-1, 1))
}

// maybeSplit runs Algorithm 2 when progressive stratification is enabled:
// it searches the estimator's chosen stratification for the split that
// reaches the target variance with the fewest samples, applies it, and
// tops both children up to n_min samples (Algorithm 1, line 8). Only a
// splittable stratum can be split, so without one the round forms no
// moments and searches nothing.
func (d *driver) maybeSplit() error {
	if d.opts.Strat != Progressive {
		return nil
	}
	part, ok := d.e.splitPart()
	if !ok {
		return nil
	}
	L := d.e.numStrata(part)
	ready := false
	for h := 0; h < L; h++ {
		if d.splittable(part, h) {
			ready = true
		}
	}
	if !ready {
		return nil
	}
	j, targetVar, ok := d.e.splitTarget(part)
	if !ok {
		return nil
	}
	sc := &d.split
	sc.cur = grow(sc.cur, L)
	sc.tstats = grow(sc.tstats, L)
	sc.toffs = grow(sc.toffs, L)
	sc.tbuf = sc.tbuf[:0]
	d.mbuf = d.e.pairs(j, false, d.mbuf[:0])
	for h := 0; h < L; h++ {
		sm := &d.mbuf[h]
		s2, _ := sm.variance()
		sc.cur[h] = stats.Stratum{Size: sm.size, S2: s2}
		if !d.splittable(part, h) {
			sc.toffs[h] = [2]int{-1, -1}
			continue
		}
		start := len(sc.tbuf)
		for _, t := range d.e.stratumAt(part, h).templates {
			m, w := d.e.tmplMoments(t, j)
			v, _ := m.variance()
			sc.tbuf = append(sc.tbuf, tmplStat{t: t, w: w, m: m.mean(), v: v})
		}
		sc.toffs[h] = [2]int{start, len(sc.tbuf)}
	}
	// Slice tstats only once tbuf has stopped growing: appends above may
	// have reallocated the backing array.
	for h := 0; h < L; h++ {
		if sc.toffs[h][0] < 0 {
			sc.tstats[h] = nil
		} else {
			sc.tstats[h] = sc.tbuf[sc.toffs[h][0]:sc.toffs[h][1]]
		}
	}
	var sw obs.Stopwatch
	if d.opts.Metrics != nil {
		sw = obs.NewStopwatch()
	}
	dec, evals, ok := findBestSplit(sc, sc.cur, sc.tstats, targetVar, d.opts.NMin)
	if d.opts.Metrics != nil {
		d.met.splitSearch.Observe(sw.Elapsed().Seconds())
	}
	d.met.splitEvals.Add(int64(evals))
	if !ok {
		return nil
	}

	parent := dec.stratum
	left, right := d.e.applySplit(part, dec)
	d.splits++
	d.met.splits.Inc()
	if tr := d.opts.Tracer; tr.Enabled() {
		where := obs.KV{Key: "stratum", Value: parent}
		if !d.shared {
			where = obs.KV{Key: "config", Value: part}
		}
		l, r := d.e.stratumAt(part, left), d.e.stratumAt(part, right)
		tr.Emit("split", where,
			obs.KV{Key: "left_templates", Value: len(l.templates)},
			obs.KV{Key: "right_templates", Value: len(r.templates)},
			obs.KV{Key: "left_size", Value: l.size},
			obs.KV{Key: "right_size", Value: r.size},
			obs.KV{Key: "strata", Value: d.e.numStrata(part)})
	}
	// The target re-clamps every iteration: a degraded query shrinks the
	// child's size.
	for _, h := range [2]int{left, right} {
		st := d.e.stratumAt(part, h)
		for st.n < min(d.opts.NMin, st.size) {
			progress, err := d.draw(part, h)
			if err != nil {
				return err
			}
			if !progress {
				break
			}
		}
	}
	d.chooseBest()
	return nil
}

// splittable reports whether stratum h of part can enter Algorithm 2's
// search: it has two member templates or more, each holding
// minTemplateObs fresh observations (a template without them has no
// estimate to order by). The stratum's cursor skips the templates already
// known to hold them; counts only grow, so they keep holding them.
func (d *driver) splittable(part, h int) bool {
	st := d.e.stratumAt(part, h)
	for st.covered < len(st.templates) && d.e.tmplObs(part, st.templates[st.covered]) >= minTemplateObs {
		st.covered++
	}
	return len(st.templates) >= 2 && st.covered == len(st.templates)
}

// splitParts divides a split stratum's templates into the decision's
// left child (copied: dec.left aliases the split scratch) and the rest.
func splitParts(templates []int, dec splitDecision) (left, right []int) {
	left = append([]int(nil), dec.left...)
	for _, t := range templates {
		if !slices.Contains(left, t) {
			right = append(right, t)
		}
	}
	return left, right
}

// captureState snapshots the final stratification for a later warm start:
// this run's fresh per-template tallies and moments, plus every
// stratification's partition as template-ID groups. Only fresh samples
// are captured — a warm run's inherited prior never compounds across
// chained snapshots, so staleness is bounded by one generation.
func (d *driver) captureState() *StratState {
	tc := len(d.opts.Templates.Members)
	if !d.opts.CaptureState || tc <= 0 ||
		len(d.opts.TemplateSigs) != tc || len(d.opts.ConfigFingerprints) != d.k {
		return nil
	}
	st := &StratState{
		Version:        stratStateVersion,
		Scheme:         d.opts.Scheme.String(),
		Strat:          d.opts.Strat.String(),
		K:              d.k,
		Configs:        append([]string(nil), d.opts.ConfigFingerprints...),
		Best:           d.best,
		SampledQueries: d.sampled,
	}
	d.e.syncCross()
	for t, ts := range templateStates(d.tcols, d.shared) {
		if len(d.opts.Templates.Members[t]) == 0 {
			continue
		}
		ts.ID = d.opts.TemplateSigs[t].ID
		ts.Params = append([]ParamMoment(nil), d.opts.TemplateSigs[t].Params...)
		st.Templates = append(st.Templates, ts)
	}
	st.Partitions = make([][][]uint64, d.parts)
	for part := range st.Partitions {
		groups := make([][]uint64, 0, d.e.numStrata(part))
		for h := 0; h < d.e.numStrata(part); h++ {
			tmpls := d.e.stratumAt(part, h).templates
			g := make([]uint64, len(tmpls))
			for i, t := range tmpls {
				g[i] = d.opts.TemplateSigs[t].ID
			}
			groups = append(groups, g)
		}
		st.Partitions[part] = groups
	}
	return st
}

// sqrtPos is the square root of a variance clamped at zero.
func sqrtPos(v float64) float64 { return math.Sqrt(math.Max(v, 0)) }
