// Package core assembles the paper's primary contribution into the
// user-facing comparison primitive: given a workload, a set of candidate
// physical design configurations, a target probability α and a sensitivity
// δ, Select returns the configuration with the lowest optimizer-estimated
// workload cost with probability at least α, while issuing as few what-if
// optimizer calls as it can (Algorithm 1, with the Section 7.2 protocol:
// Delta Sampling, progressive stratification, a Pr(CS) stability window and
// configuration elimination). A conservative mode implements Section 6:
// cost-interval bounds make the variance estimate an upper bound and
// enforce the modified Cochran rule before the CLT is trusted.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"physdes/internal/bounds"
	"physdes/internal/obs"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/resilience"
	"physdes/internal/sampling"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// Options configures the comparison primitive. DefaultOptions(seed)
// reproduces the paper's Section 7.2 protocol. A zero value plus a Seed
// gets the same α, stability window, elimination threshold and pilot
// size, but the zero Scheme and Strat: Independent Sampling without
// stratification.
type Options struct {
	// Alpha is the target probability of correct selection (default 0.9).
	Alpha float64
	// Delta is the cost sensitivity δ (default 0: detect any difference).
	Delta float64
	// Scheme selects the sampling scheme. The zero value is Independent
	// Sampling; DefaultOptions selects Delta Sampling.
	Scheme sampling.Scheme
	// Strat selects stratification. The zero value is NoStrat;
	// DefaultOptions selects Progressive.
	Strat sampling.StratMode
	// StabilityWindow guards against Pr(CS) oscillation (default 10, as in
	// Section 7.2).
	StabilityWindow int
	// EliminationThreshold drops clearly inferior configurations
	// (default 0.995; set negative to disable). It is a floor: the sampler
	// tightens it to 1 − (1 − α)/(k − 1) when that is stricter (k > 21 at
	// the defaults), so eliminations never spend the whole 1 − α budget.
	EliminationThreshold float64
	// NMin is the per-stratum pilot size (default 30).
	NMin int
	// MaxCalls, when positive, caps optimizer calls (fixed-budget mode).
	// Probes are costed through the atom store, so the budget counts the
	// what-if calls it forwards to the optimizer, not probes answered from
	// shared atoms.
	MaxCalls int64
	// Seed drives all randomness.
	Seed uint64
	// Parallelism bounds the workers of conservative bound derivation,
	// which fans whole statements out (default runtime.GOMAXPROCS(0);
	// negative values are treated as 1). Sampling probes every batch on
	// the caller's goroutine. The Selection is bit-identical across
	// parallelism levels for a fixed Seed.
	Parallelism int
	// Conservative enables Section 6: per-query cost bounds are derived
	// (extra optimizer calls), the variance estimates are replaced by the
	// σ²_max upper bound when larger, and termination additionally waits
	// for the modified Cochran sample size.
	Conservative bool
	// OverheadAware enables Section 5.2's non-constant optimization
	// times: sample allocation maximizes variance reduction per unit of
	// estimated optimization overhead (multi-join statements cost more to
	// optimize than point lookups).
	OverheadAware bool
	// Rho is the DP granularity for conservative mode (default 1.0 cost
	// units).
	Rho float64
	// Tracer, when non-nil, receives structured JSONL events for the whole
	// selection: a select span, conservative bound derivation, and the
	// samplers' per-round, split, elimination and allocation events. The
	// nil default costs the hot path one nil-check.
	Tracer *obs.Tracer
	// Metrics, when non-nil, is the registry the selection exports its
	// counters on: the optimizer's call counter and cost-latency histogram
	// are attached to the optimizer for the session, the samplers register
	// their sample/round/split/elimination counters, and conservative mode
	// exports the σ²_max DP timings (a package-level hook in
	// internal/bounds).
	Metrics *obs.Registry

	// MaxRetries re-attempts failed what-if probes (only meaningful when
	// the oracle is fallible — a remote service, or a fault-injection
	// decorator installed via WrapOracle). 0 disables retries.
	MaxRetries int
	// ErrorBudget caps how many probes may degrade before the run aborts
	// with resilience.ErrBudgetExhausted (<= 0: unlimited).
	ErrorBudget int
	// Degrade selects what happens to a probe that stays failed after
	// MaxRetries: resilience.Fail aborts the run (default), resilience.Skip
	// drops the query and reweights its stratum, resilience.Conservative
	// substitutes the Section 6 upper interval endpoint (requires
	// Conservative mode, which derives the intervals).
	Degrade resilience.Policy
	// WrapOracle, when non-nil, decorates the live oracle before the
	// resilience layer is applied — the seam the fault-injection harness
	// (internal/faultinject) uses to exercise failure paths end-to-end.
	WrapOracle func(sampling.Oracle) sampling.Oracle

	// WarmState, when non-nil, seeds the sampler from a prior run's
	// snapshot (Selection.State): templates whose parameter distribution
	// is unchanged keep their strata and moments and get a reduced pilot,
	// new or drifted templates are re-piloted, and the snapshot's
	// incumbent is protected by an α-gated never-adopt-worse check — a
	// warm run that fails to certify Pr(CS) ≥ α keeps the incumbent
	// instead of switching. An empty or incompatible snapshot degrades to
	// a cold start bit-identical to WarmState == nil.
	WarmState *sampling.StratState
	// CaptureState records the final stratification into Selection.State
	// for a later warm start. It is implied by WarmState != nil (warm
	// chains re-capture so drift stays one generation deep).
	CaptureState bool
}

// resilient reports whether any resilience option is active, i.e. the
// oracle must be wrapped.
func (o Options) resilient() bool {
	return o.MaxRetries > 0 || o.ErrorBudget > 0 || o.Degrade != resilience.Fail
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.9
	}
	if o.StabilityWindow == 0 {
		o.StabilityWindow = 10
	}
	if o.EliminationThreshold == 0 {
		o.EliminationThreshold = 0.995
	}
	if o.EliminationThreshold < 0 {
		o.EliminationThreshold = 0
	}
	if o.NMin == 0 {
		o.NMin = stats.NMin
	}
	if o.Rho == 0 {
		o.Rho = 1
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	// Scheme and Strat keep their zero values (Independent, NoStrat) when
	// set explicitly; DefaultOptions selects the paper's best performers
	// (Delta + Progressive).
	return o
}

// Selection reports the primitive's decision and its cost accounting.
type Selection struct {
	// Best is the selected configuration.
	Best *physical.Configuration
	// BestIndex is its index in the input slice.
	BestIndex int
	// PrCS is the estimated probability of correct selection.
	PrCS float64
	// SampledQueries is the number of distinct workload statements
	// evaluated.
	SampledQueries int
	// OptimizerCalls is the total number of what-if calls used, including
	// bound derivation in conservative mode.
	OptimizerCalls int64
	// ExhaustiveCalls is what the straightforward approach would have
	// spent: N·k.
	ExhaustiveCalls int64
	// Eliminated flags configurations dropped early.
	Eliminated []bool
	// Strata and Splits describe the final stratification.
	Strata, Splits int
	// CLTMinSamples is the Equation 9 requirement enforced in
	// conservative mode (0 otherwise).
	CLTMinSamples int
	// VarianceBound is the σ²_max upper bound applied in conservative
	// mode (0 otherwise).
	VarianceBound float64
	// DegradedQueries counts workload statements dropped by the
	// skip-and-reweight degradation policy (0 with a healthy oracle).
	DegradedQueries int
	// OracleRetries and OracleFaults report the resilience layer's
	// accounting: re-attempted probes and failed probe attempts (0 when no
	// resilience option is active).
	OracleRetries, OracleFaults int64
	// State, when Options.CaptureState or Options.WarmState was set,
	// snapshots the final stratification for a later warm start. Its
	// Incumbent records the configuration this selection adopted.
	State *sampling.StratState
	// Warm reports what a warm start reused (zero value on cold runs).
	Warm sampling.WarmInfo
	// IncumbentKept is true when the α-gated safety check overrode the
	// sampler's pick: the run started warm, ended below α, and the
	// snapshot's incumbent was kept instead of an uncertified switch.
	IncumbentKept bool
}

// Savings returns the fraction of exhaustive optimizer calls avoided.
func (s *Selection) Savings() float64 {
	if s.ExhaustiveCalls == 0 {
		return 0
	}
	saved := 1 - float64(s.OptimizerCalls)/float64(s.ExhaustiveCalls)
	if saved < 0 {
		return 0
	}
	return saved
}

// DefaultOptions returns the Section 7.2 protocol: Delta Sampling with
// progressive stratification, α=0.9, δ=0, stability window 10, elimination
// at 0.995.
func DefaultOptions(seed uint64) Options {
	return Options{
		Scheme: sampling.Delta,
		Strat:  sampling.Progressive,
		Seed:   seed,
	}.withDefaults()
}

// Select runs the comparison primitive over the workload and candidate
// configurations. Observability is configured through Options: Tracer for
// structured events (a flight recorder sink folds them into a RunReport
// whose Rounds carry the Pr(CS) trajectory), Metrics for the counter
// registry — the two compose.
func Select(opt *optimizer.Optimizer, w *workload.Workload, configs []*physical.Configuration, o Options) (*Selection, error) {
	//physdes:detachedctx compatibility wrapper for pre-cancellation callers; SelectCtx is the cancellable path
	return SelectCtx(context.Background(), opt, w, configs, o)
}

// SelectCtx is Select with cancellation and oracle resilience: ctx aborts
// the run between rounds and scheduled probes (returning the context
// error), and the MaxRetries / ErrorBudget / Degrade options harden a
// fallible oracle behind the resilience layer. For a fixed Seed the
// selection stays bit-identical to Select whenever ctx never fires and the
// oracle never fails. Every probe is costed through a fresh atom store
// over opt (optimizer.AtomicCache): overlapping configurations share
// memoized per-structure atom costs, and the reassembled values are
// bit-identical to direct costing, so only OptimizerCalls shrinks.
func SelectCtx(ctx context.Context, opt *optimizer.Optimizer, w *workload.Workload, configs []*physical.Configuration, o Options) (*Selection, error) {
	o = o.withDefaults()
	if w == nil || w.Size() == 0 {
		return nil, errors.New("core: empty workload")
	}
	if len(configs) < 2 {
		return nil, errors.New("core: need at least two configurations")
	}
	if o.Degrade == resilience.Conservative && !o.Conservative {
		return nil, errors.New("core: Degrade=Conservative requires Conservative mode (it substitutes the Section 6 interval endpoints)")
	}
	// Account calls from zero for this selection.
	opt.ResetCalls()
	if o.Metrics != nil {
		opt.SetMetrics(o.Metrics)
	}

	span := o.Tracer.Begin("select",
		obs.KV{Key: "n", Value: w.Size()},
		obs.KV{Key: "k", Value: len(configs)},
		obs.KV{Key: "scheme", Value: o.Scheme.String()},
		obs.KV{Key: "strat", Value: o.Strat.String()},
		obs.KV{Key: "alpha", Value: o.Alpha},
		obs.KV{Key: "delta", Value: o.Delta},
		obs.KV{Key: "conservative", Value: o.Conservative},
		obs.KV{Key: "parallelism", Value: o.Parallelism})

	shared := optimizer.NewAtomicCache(opt)
	if o.Metrics != nil {
		shared.SetMetrics(o.Metrics)
	}
	var oracle sampling.Oracle = sampling.NewLiveOracle(shared, w, configs)
	if o.WrapOracle != nil {
		oracle = o.WrapOracle(oracle)
	}
	sOpts := sampling.Options{
		Scheme:               o.Scheme,
		Strat:                o.Strat,
		Alpha:                o.Alpha,
		Delta:                o.Delta,
		NMin:                 o.NMin,
		StabilityWindow:      o.StabilityWindow,
		EliminationThreshold: o.EliminationThreshold,
		MaxCalls:             o.MaxCalls,
		Ctx:                  ctx,
		RNG:                  stats.NewRNG(o.Seed),
		Templates:            w.Partition(),
		Tracer:               o.Tracer,
		Metrics:              o.Metrics,
	}
	if o.WarmState != nil || o.CaptureState {
		sOpts.WarmState = o.WarmState
		sOpts.CaptureState = true
		sOpts.TemplateSigs = templateSignatures(w)
		sOpts.ConfigFingerprints = configFingerprints(configs)
	}

	sel := &Selection{ExhaustiveCalls: int64(w.Size()) * int64(len(configs))}

	if o.OverheadAware {
		sOpts.CallCost = func(q int) float64 {
			return opt.OptimizeOverhead(w.Queries[q].Analysis)
		}
	}

	var ivs []bounds.Interval
	if o.Conservative {
		var err error
		if ivs, err = applyConservative(opt, w, configs, o, &sOpts, sel); err != nil {
			return nil, err
		}
	}

	var hardened *resilience.Oracle
	if o.resilient() {
		rOpts := resilience.Options{
			MaxRetries:  o.MaxRetries,
			Policy:      o.Degrade,
			ErrorBudget: o.ErrorBudget,
			Metrics:     o.Metrics,
		}
		if o.Degrade == resilience.Conservative {
			// A degraded probe is answered with the query's upper cost
			// interval endpoint: substitutions only inflate apparent costs,
			// so Pr(CS) stays a valid lower bound.
			rOpts.Fallback = func(i, j int) float64 { return ivs[i].Hi }
		}
		hardened = resilience.Wrap(oracle, rOpts)
		oracle = hardened
	}

	res, err := sampling.Run(oracle, sOpts)
	if err != nil {
		if ctx.Err() != nil {
			o.Metrics.Counter("select_cancelled_total").Inc()
		}
		return nil, fmt.Errorf("core: %w", err)
	}

	sel.Best = configs[res.Best]
	sel.BestIndex = res.Best
	sel.PrCS = res.PrCS
	sel.SampledQueries = res.SampledQueries
	sel.OptimizerCalls = res.OptimizerCalls
	sel.Eliminated = res.Eliminated
	sel.Strata = res.Strata
	sel.Splits = res.Splits
	sel.DegradedQueries = res.DegradedQueries
	sel.State = res.State
	sel.Warm = res.Warm
	// α-gated never-adopt-worse check: a warm run that could not certify
	// Pr(CS) ≥ α must not move off the snapshot's incumbent — staying put
	// is the only choice the prior run already certified.
	if o.WarmState != nil && res.Warm.Started && o.WarmState.Incumbent != "" && sel.PrCS < o.Alpha {
		if inc := indexOfFingerprint(sOpts.ConfigFingerprints, o.WarmState.Incumbent); inc >= 0 && inc != sel.BestIndex {
			sel.Best = configs[inc]
			sel.BestIndex = inc
			sel.IncumbentKept = true
			o.Metrics.Counter("select_incumbent_kept_total").Inc()
		}
	}
	if sel.State != nil {
		sel.State.Incumbent = sOpts.ConfigFingerprints[sel.BestIndex]
	}
	if hardened != nil {
		st := hardened.Stats()
		sel.OracleRetries = st.Retries
		sel.OracleFaults = st.Faults
		if o.Degrade == resilience.Conservative {
			// Substituted probes never reach the sampler as skips; surface
			// them through the same field so callers see the degradation.
			sel.DegradedQueries += int(st.Degraded)
		}
	}

	span.End(
		obs.KV{Key: "best", Value: sel.BestIndex},
		obs.KV{Key: "prcs", Value: sel.PrCS},
		obs.KV{Key: "sampled", Value: sel.SampledQueries},
		obs.KV{Key: "calls", Value: sel.OptimizerCalls},
		obs.KV{Key: "exhaustive", Value: sel.ExhaustiveCalls},
		obs.KV{Key: "strata", Value: sel.Strata},
		obs.KV{Key: "splits", Value: sel.Splits},
		obs.KV{Key: "degraded", Value: sel.DegradedQueries},
		obs.KV{Key: "retries", Value: sel.OracleRetries},
		obs.KV{Key: "faults", Value: sel.OracleFaults})
	return sel, nil
}

// applyConservative derives Section 6 bounds and wires them into the
// sampling options: the σ²_max upper bound replaces smaller sample
// variances, and Equation 9's sample-size floor gates termination. The
// derived per-query intervals are returned so the resilience layer can use
// their upper endpoints as conservative fallback costs.
func applyConservative(opt *optimizer.Optimizer, w *workload.Workload, configs []*physical.Configuration, o Options, sOpts *sampling.Options, sel *Selection) ([]bounds.Interval, error) {
	if o.Metrics != nil {
		bounds.SetMetrics(o.Metrics)
	}
	span := o.Tracer.Begin("derive_bounds", obs.KV{Key: "rho", Value: o.Rho})
	d := bounds.NewDeriver(opt, configs...).WithParallelism(o.Parallelism)
	ivs := d.WorkloadIntervals(w)

	// Delta Sampling estimates cost differences; Independent Sampling
	// estimates costs. Bound the matching distribution.
	var target []bounds.Interval
	if o.Scheme == sampling.Delta {
		target = bounds.DiffIntervals(ivs, ivs)
	} else {
		target = ivs
	}
	vres, err := bounds.SigmaMaxDP(target, o.Rho)
	fallback := err != nil
	if fallback {
		// Too fine a grid for the interval spread: fall back to the
		// threshold vertex search (a lower bound on σ²_max, still far
		// above typical sample variances) rather than failing the run.
		sel.VarianceBound = bounds.SigmaMaxThreshold(target)
		o.Metrics.Counter("bounds_sigma_max_fallback_total").Inc()
	} else {
		sel.VarianceBound = vres.UpperBound
	}
	cltMin, err := bounds.CLTMinSamples(ivs, o.Rho)
	if err != nil {
		return nil, fmt.Errorf("core: conservative bounds: %w", err)
	}
	sel.CLTMinSamples = cltMin
	sel.OptimizerCalls = opt.Calls() // bound-derivation calls so far
	span.End(
		obs.KV{Key: "variance_bound", Value: sel.VarianceBound},
		obs.KV{Key: "variance_fallback", Value: fallback},
		obs.KV{Key: "clt_min_samples", Value: cltMin},
		obs.KV{Key: "calls", Value: sel.OptimizerCalls})

	sOpts.VarianceBound = bounds.VarianceBoundRule(sel.VarianceBound, cltMin)
	sOpts.MinSamples = cltMin
	return ivs, nil
}
