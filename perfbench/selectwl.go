package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"physdes/internal/bounds"
	"physdes/internal/catalog"
	"physdes/internal/core"
	"physdes/internal/obs"
	"physdes/internal/obs/recorder"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// regretTolerance is the share by which a pick's exact workload cost may
// exceed the exact best before the pick counts as wrong.
const regretTolerance = 0.001

// alpha is the target Pr(CS) of core.DefaultOptions; a run fails when more
// than 1-alpha of its picks are wrong.
const alpha = 0.9

// rho is the DP granularity conservative mode uses by default.
const rho = 1.0

// The bounds split runs on the first boundsN statements and boundsK
// configurations: at the full 13K statements CLTMinSamples alone takes
// seconds.
const boundsN, boundsK = 1_000, 15

// setupRepeats is how often parseUSPerStmt times a parse; the per-layer
// sqlparse metric is the median.
const setupRepeats = 5

// spaceOptions bound configuration sizes as `physdes select` and the
// daemon do.
var spaceOptions = physical.SpaceOptions{MinStructures: 3, MaxStructures: 10}

// selectWorkload is a workload of sequential core.Select calls, one per
// selection seed 1, 2, ..., over workloads generated from the run's seed,
// each with a configuration space drawn from a fixed seed.
type selectWorkload struct {
	name string
	db   string // "tpcd" or "crm"
	n, k int
	// draws is how many workloads a run generates from its seed, 0 for one
	// per selection; selection seed i runs on draw i mod draws.
	draws int
	// spaceSeed fixes how each draw's configuration space is drawn from its
	// candidates.
	spaceSeed uint64
	// conservative selects with Section 6 bounds (core.Options.Conservative).
	conservative bool
	// perSecond is how many selections one second of budget buys.
	perSecond float64
	// parallelism is core.Options.Parallelism. The workloads select with
	// one worker: on 2 cores of a shared host a second one made selections
	// slower (crm-wide: 6.9 s a pass against 5.8 s) and noisier, since
	// while another tenant holds one core the worker on the other waits
	// for it. One worker never takes the batched oracle path.
	parallelism int
}

// On tpcd-select a quarter of the selections stop early after ~1.5K calls
// and ~30 ms, the rest take a census of ~15.7K calls and ~190 ms; which
// ones do is chance, so a run of 30 selections saw 4 early stops under one
// seed and 10 under the next, and selects_per_s moved with that mix. A run
// therefore makes over 80 selections, and since the mix, not the draw,
// sets the work, three draws suffice (each costs ~2 s of ground truth).
// crm-wide selections all take a census.
var (
	tpcdSelect = selectWorkload{name: "tpcd-select", db: "tpcd", n: 13_000, k: 50, draws: 3, spaceSeed: 12, perSecond: 5.5, parallelism: 1}
	crmWide    = selectWorkload{name: "crm-wide", db: "crm", n: 6_000, k: 200, draws: 3, spaceSeed: 4, perSecond: 6.0, parallelism: 1}
	// At 13K statements bound derivation takes 8.9 s of a 9.1 s
	// conservative selection, so this workload is sized down to 1K. Its
	// time depends on the draw rather than the selection seed, so each
	// selection gets a draw of its own.
	tpcdConservative = selectWorkload{name: "tpcd-conservative", db: "tpcd", n: 1_000, k: 15, spaceSeed: 12, conservative: true, perSecond: 1.4, parallelism: 1}
)

// drawsFor returns how many draws a run of count selections uses.
func (s selectWorkload) drawsFor(count int) int {
	if s.draws == 0 {
		return count
	}
	return s.draws
}

// scenario is one generated workload with its configuration space.
type scenario struct {
	cat     *catalog.Catalog
	w       *workload.Workload
	configs []*physical.Configuration
}

// setupTimes are the medians over a run's generated workloads (draws or
// upload texts) of the set-up stages of one, in seconds.
type setupTimes struct {
	total, gen, enumerate, space float64
}

// stageTimes collects each set-up's stage times; medians returns them.
type stageTimes struct {
	total, gen, enumerate, space []float64
}

func (t *stageTimes) add(total, gen, enumerate, space float64) {
	t.total, t.gen = append(t.total, total), append(t.gen, gen)
	t.enumerate, t.space = append(t.enumerate, enumerate), append(t.space, space)
}

func (t *stageTimes) medians() setupTimes {
	return setupTimes{total: median(t.total), gen: median(t.gen), enumerate: median(t.enumerate), space: median(t.space)}
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func newCatalog(db string) *catalog.Catalog {
	if db == "crm" {
		return catalog.CRM()
	}
	return catalog.TPCD(1)
}

func generate(cat *catalog.Catalog, db string, n int, seed uint64) (*workload.Workload, error) {
	if db == "crm" {
		return workload.GenCRM(cat, n, seed)
	}
	return workload.GenTPCD(cat, n, seed)
}

func candidates(cat *catalog.Catalog, db string, w *workload.Workload) []physical.Structure {
	analyses := make([]*sqlparse.Analysis, len(w.Queries))
	for i, q := range w.Queries {
		analyses[i] = q.Analysis
	}
	return physical.EnumerateCandidates(cat, analyses,
		physical.CandidateOptions{Covering: true, Views: db == "tpcd"})
}

// setup builds a run's draws, each from a collected heap so one draw's
// garbage does not slow the next, and returns them with the median set-up
// time of one draw.
func (s selectWorkload) setup(seed uint64, draws int) ([]*scenario, setupTimes, error) {
	var times stageTimes
	var scs []*scenario
	for d := 0; d < draws; d++ {
		runtime.GC()
		start := obs.NewStopwatch()
		cat := newCatalog(s.db)
		t := obs.NewStopwatch()
		w, err := generate(cat, s.db, s.n, seed*1000+uint64(d))
		if err != nil {
			return nil, setupTimes{}, fmt.Errorf("%s: generate workload: %w", s.name, err)
		}
		gen := t.Elapsed().Seconds()
		t = obs.NewStopwatch()
		cands := candidates(cat, s.db, w)
		enum := t.Elapsed().Seconds()
		t = obs.NewStopwatch()
		configs := physical.GenerateSpace(cat, cands, s.k, stats.NewRNG(s.spaceSeed), spaceOptions)
		space := t.Elapsed().Seconds()
		times.add(start.Elapsed().Seconds(), gen, enum, space)
		if len(configs) != s.k {
			return nil, setupTimes{}, fmt.Errorf("%s: space has %d configurations, want %d", s.name, len(configs), s.k)
		}
		scs = append(scs, &scenario{cat: cat, w: w, configs: configs})
	}
	return scs, times.medians(), nil
}

// optimizers returns a fresh optimizer for each draw.
func optimizers(scs []*scenario) []*optimizer.Optimizer {
	out := make([]*optimizer.Optimizer, len(scs))
	for i, sc := range scs {
		out[i] = optimizer.New(sc.cat)
	}
	return out
}

func (s selectWorkload) options(seed uint64) core.Options {
	o := core.DefaultOptions(seed)
	o.Parallelism = s.parallelism
	o.Conservative = s.conservative
	return o
}

// pass is the outcome of one sequential run over selection seeds 1..count.
type pass struct {
	sels  []*core.Selection // nil where Select failed
	latMS []float64
	wallS float64
	errs  int
}

// runPass runs selection seeds 1..count, seed i+1 on draw i mod
// len(scs) with that draw's optimizer in opts. With l non-nil each Select
// is traced: a timing oracle wraps the live oracle, reg collects the
// samplers' and the optimizer's counters, and a flight recorder collects
// the phases and rounds.
func (s selectWorkload) runPass(opts []*optimizer.Optimizer, scs []*scenario, count int, l *layers, reg *obs.Registry) pass {
	var out pass
	start := obs.NewStopwatch()
	for i := 0; i < count; i++ {
		sc, opt := scs[i%len(scs)], opts[i%len(scs)]
		o := s.options(uint64(i + 1))
		var rec *recorder.Recorder
		if l != nil {
			rec = recorder.New(fmt.Sprintf("%s-%d", s.name, i+1))
			o.Tracer = obs.NewTracerSinks(rec)
			o.Metrics = reg
			o.WrapOracle = func(in sampling.Oracle) sampling.Oracle { return wrapTiming(in, &l.oracle) }
		}
		t := obs.NewStopwatch()
		sel, err := core.Select(opt, sc.w, sc.configs, o)
		d := t.Elapsed()
		out.latMS = append(out.latMS, millis(d))
		out.sels = append(out.sels, sel)
		if err != nil {
			out.errs++
			fmt.Printf("%s: selection seed %d: %v\n", s.name, i+1, err)
			continue
		}
		if l != nil {
			l.selectWallS += d.Seconds()
			l.calls += sel.OptimizerCalls
			l.addReport(rec.Report())
		}
	}
	out.wallS = start.Elapsed().Seconds()
	if l != nil {
		// Select attaches the registry to the optimizer and to the bounds
		// package for good; detach so later untraced work stays untraced.
		for _, opt := range opts {
			opt.SetMetrics(nil)
		}
		bounds.SetMetrics(nil)
	}
	return out
}

// sameSelection compares the deterministic parts of two Selections.
func sameSelection(a, b *core.Selection) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.BestIndex == b.BestIndex && a.OptimizerCalls == b.OptimizerCalls &&
		a.SampledQueries == b.SampledQueries && a.Strata == b.Strata &&
		a.Splits == b.Splits && a.PrCS == b.PrCS && a.CLTMinSamples == b.CLTMinSamples &&
		slices.Equal(a.Eliminated, b.Eliminated)
}

// eliminated counts the configurations a Selection eliminated, as the
// daemon's job results report it.
func eliminated(sel *core.Selection) int {
	n := 0
	for _, e := range sel.Eliminated {
		if e {
			n++
		}
	}
	return n
}

// calls returns each successful selection's OptimizerCalls.
func (p pass) calls() []float64 {
	var out []float64
	for _, sel := range p.sels {
		if sel != nil {
			out = append(out, float64(sel.OptimizerCalls))
		}
	}
	return out
}

// rate is the throughput of a sequence of selection latencies: selections
// over their summed time. Early-stopping selections take a tenth of a
// census, so a median over short pieces of the sequence moves with the
// mix in each piece; the sum counts every selection.
func rate(latMS []float64) float64 {
	return ratio(float64(len(latMS)), sum(latMS)/1000)
}

func (p pass) fingerprint() fingerprint {
	var f fingerprint
	for _, sel := range p.sels {
		if sel != nil {
			f.add(sel.BestIndex, sel.OptimizerCalls, sel.SampledQueries, sel.Strata, eliminated(sel))
			f.splits += sel.Splits
		}
	}
	return f
}

// wrongPicks counts selections whose pick costs more than regretTolerance
// above the exact best of their draw's ground-truth matrix.
func wrongPicks(sels []*core.Selection, truths []*workload.CostMatrix) (wrong int, maxRegret float64) {
	for i, sel := range sels {
		if sel == nil {
			continue
		}
		truth := truths[i%len(truths)]
		_, best := truth.BestConfig()
		regret := truth.TotalCost(sel.BestIndex)/best - 1
		if regret > regretTolerance {
			wrong++
		}
		if regret > maxRegret {
			maxRegret = regret
		}
	}
	return wrong, maxRegret
}

func (s selectWorkload) run(p params) (*result, error) {
	// Untraced runs time one pass over selection seeds 1..count; traced runs
	// make two passes of half as many, the second traced, and compare them.
	count := p.work(s.perSecond)
	if p.trace {
		count = (count + 1) / 2
	}
	scs, st, err := s.setup(p.seed, s.drawsFor(count))
	if err != nil {
		return nil, err
	}
	// Ground truth, outside every timed region and outside setup_s.
	var truths []*workload.CostMatrix
	for d, sc := range scs {
		fmt.Printf("%s: seed %d draw %d: %d statements, %d templates, k=%d\n",
			s.name, p.seed, d, sc.w.Size(), sc.w.NumTemplates(), len(sc.configs))
		truths = append(truths, workload.ComputeCostMatrix(optimizer.New(sc.cat), sc.w, sc.configs))
	}
	fmt.Printf("%s: setup %.3fs\n", s.name, st.total)

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var base, second pass
	l := &layers{}
	if !p.trace {
		// The first selection runs once untimed, on an optimizer of its own,
		// before the timed pass: it warms the process up and the timed pass
		// must repeat it exactly.
		second = s.runPass(optimizers(scs[:1]), scs[:1], 1, nil, nil)
		opts := optimizers(scs)
		before := readAllocs()
		peak := startHeapPeak()
		base = s.runPass(opts, scs, count, nil, nil)
		peakMB := peak.Stop()
		a := readAllocs().since(before)
		res.set("setup_s", st.total, "s")
		res.set("selects_per_s", rate(base.latMS), "1/s")
		res.set("select_ms_p50", median(base.latMS), "ms")
		res.set("calls_per_select", median(base.calls()), "count")
		res.set("allocs_per_select", float64(a.objects)/float64(count), "count")
		res.set("alloc_mb_per_select", float64(a.bytes)/mb/float64(count), "MB")
		res.set("peak_heap_mb", peakMB, "MB")
	} else {
		base = s.runPass(optimizers(scs), scs, count, nil, nil)
		reg := obs.NewRegistry()
		second = s.runPass(optimizers(scs), scs, count, l, reg)
		l.snap = reg.Snapshot()
		l.overheadPct = (second.wallS/base.wallS - 1) * 100
		if err := s.boundsSplit(scs[0], l); err != nil {
			return nil, err
		}
		l.genS, l.enumerateS, l.spaceS = st.gen, st.enumerate, st.space
		if l.parseUSPerStmt, err = parseUSPerStmt(scs); err != nil {
			return nil, err
		}
	}

	// Nondeterminism check: every selection the second pass (untraced runs:
	// the warm-up) made must repeat the first pass exactly.
	for i := range second.sels {
		if !sameSelection(base.sels[i], second.sels[i]) {
			res.fail("%s: selection seed %d gave a different Selection when repeated (trace=%t)", s.name, i+1, p.trace)
		}
	}
	attempted, errs := len(base.sels)+len(second.sels), base.errs+second.errs
	wrong, maxRegret := wrongPicks(base.sels, truths)
	l.wrongPickRate = float64(wrong) / float64(count)
	l.errorRate = float64(errs) / float64(attempted)
	fmt.Printf("fingerprint %s seed=%d trace=%t %s\n", s.name, p.seed, p.trace, base.fingerprint())
	fmt.Printf("%s: %d selections in %.3fs, %d repeated in %.3fs, %d errors, %d wrong picks (max regret %.4f%%)\n",
		s.name, count, base.wallS, len(second.sels), second.wallS, errs, wrong, 100*maxRegret)
	if errs > 0 {
		res.fail("%s: %d of %d selections failed", s.name, errs, attempted)
	}
	if l.wrongPickRate > 1-alpha {
		res.fail("%s: wrong-pick rate %.3f exceeds 1-alpha = %.2f", s.name, l.wrongPickRate, 1-alpha)
	}
	if p.trace {
		l.emit(res)
	}
	res.Attempted, res.Failed = attempted, errs
	return res, nil
}

// boundsSplit times the three steps of conservative-mode (Section 6) bound
// derivation separately, on the first boundsN statements and boundsK
// configurations of the first draw.
func (s selectWorkload) boundsSplit(sc *scenario, l *layers) error {
	ids := make([]int, min(boundsN, sc.w.Size()))
	for i := range ids {
		ids[i] = i
	}
	w := sc.w.Subset(ids)
	d := bounds.NewDeriver(optimizer.New(sc.cat), sc.configs[:min(boundsK, len(sc.configs))]...).WithParallelism(s.parallelism)
	t := obs.NewStopwatch()
	ivs := d.WorkloadIntervals(w)
	l.boundsIntervalsS = t.Elapsed().Seconds()

	// Delta Sampling bounds the distribution of cost differences; when the
	// DP is impractical core falls back to the threshold search, so time
	// that too.
	t = obs.NewStopwatch()
	diffs := bounds.DiffIntervals(ivs, ivs)
	if _, err := bounds.SigmaMaxDP(diffs, rho); err != nil {
		l.boundsSigmaFallback = 1
		bounds.SigmaMaxThreshold(diffs)
		fmt.Printf("%s: SigmaMaxDP falls back to SigmaMaxThreshold: %v\n", s.name, err)
	}
	l.boundsSigmaDPS = t.Elapsed().Seconds()

	t = obs.NewStopwatch()
	cltMin, err := bounds.CLTMinSamples(ivs, rho)
	if err != nil {
		return fmt.Errorf("%s: CLTMinSamples: %w", s.name, err)
	}
	l.boundsCLTS = t.Elapsed().Seconds()
	l.boundsCLTMin = cltMin
	return nil
}

// parseUSPerStmt times workload.Parse over the scenarios' SQL text and
// returns the median of setupRepeats passes per statement, in µs.
func parseUSPerStmt(scs []*scenario) (float64, error) {
	var stmts int
	for _, sc := range scs {
		stmts += sc.w.Size()
	}
	var passS []float64
	for r := 0; r < setupRepeats; r++ {
		t := obs.NewStopwatch()
		for _, sc := range scs {
			if _, err := workload.Parse(sc.cat, queriesOf(sc.w)); err != nil {
				return 0, fmt.Errorf("parse workload text: %w", err)
			}
		}
		passS = append(passS, t.Elapsed().Seconds())
	}
	return median(passS) / float64(stmts) * 1e6, nil
}
