package sampling

import (
	"context"
	"errors"
	"fmt"

	"physdes/internal/obs"
	"physdes/internal/stats"
)

// Scheme selects the sampling scheme of Section 4.
type Scheme int

// Sampling schemes.
const (
	// Independent draws a separate sample per configuration (Section 4.1).
	Independent Scheme = iota
	// Delta draws one shared sample and estimates cost differences
	// directly (Section 4.2).
	Delta
)

func (s Scheme) String() string {
	switch s {
	case Independent:
		return "independent"
	case Delta:
		return "delta"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// StratMode selects the stratification policy of Section 5.
type StratMode int

// Stratification modes.
const (
	// NoStrat keeps a single stratum.
	NoStrat StratMode = iota
	// Progressive refines the stratification greedily as sampling
	// progresses (Algorithm 2).
	Progressive
	// Fine starts with one stratum per template (the straw-man of
	// Figure 2).
	Fine
	// EqualAlloc keeps per-template strata but allocates the same number
	// of samples to every stratum — the "Equal Alloc." baseline of
	// Tables 2 and 3.
	EqualAlloc
)

func (m StratMode) String() string {
	switch m {
	case NoStrat:
		return "none"
	case Progressive:
		return "progressive"
	case Fine:
		return "fine"
	case EqualAlloc:
		return "equal-alloc"
	}
	return fmt.Sprintf("StratMode(%d)", int(m))
}

// Options configures a configuration-selection run (Algorithm 1).
type Options struct {
	Scheme Scheme
	Strat  StratMode

	// Alpha is the target probability of correct selection.
	Alpha float64
	// Delta is the cost sensitivity δ: differences below it need not be
	// detected.
	Delta float64
	// NMin is the pilot sample size per stratum (default stats.NMin = 30).
	NMin int
	// StabilityWindow requires Pr(CS) > α to hold for this many
	// consecutive samples before termination (Section 7.2 uses 10;
	// default 1).
	StabilityWindow int
	// EliminationThreshold drops configurations whose pairwise Pr(CS)
	// exceeds it from future sampling (Section 7.2 uses 0.995; 0 disables).
	// It is a floor: with k configurations the driver eliminates only above
	// max(EliminationThreshold, 1 − (1 − α)/(k − 1)), so the charges frozen
	// by eliminations never spend the whole 1 − α budget.
	EliminationThreshold float64
	// MaxCalls, when positive, runs in fixed-budget mode: sampling stops
	// after this many optimizer calls regardless of Pr(CS) — the protocol
	// of the Monte-Carlo experiments (Figures 1–4).
	MaxCalls int64
	// MinSamples, when positive, forbids adaptive termination before this
	// many queries have been sampled — the hook for the CLT sample-size
	// requirement of Equation 9 (conservative mode).
	MinSamples int
	// RNG drives all randomness; required.
	RNG *stats.RNG

	// Ctx, when non-nil, cancels the run: the sampler checks it before the
	// pilot batch and every round, and Run returns the context error once
	// it fires. nil means run to completion.
	Ctx context.Context

	// Parallelism is the worker count for each evaluation batch — the
	// whole pilot phase, then one Delta row or one Independent sample per
	// round. An infallible oracle that batches itself (BatchOracle: the
	// live oracle, which costs each Delta row's statement once under all
	// its configurations, and the matrix oracle) serves every batch, at
	// every setting, over up to this many workers. Otherwise, above 1,
	// batches of at least 16 pairs fan the oracle's own CostErr or Cost
	// probes out over a bounded worker pool; 0 or 1, and smaller batches,
	// run inline, pair by pair. Every setting evaluates the same schedule
	// of probes, workers only compute pure cost values into positional
	// slots, and every statistical fold runs serially in schedule order,
	// so Results are bit-identical at every setting, also when probes
	// fail.
	Parallelism int

	// TemplateIndex maps each query to a dense template index; required
	// for any stratification mode (see workload.TemplateIndexOf). nil puts
	// every query in one template.
	TemplateIndex []int
	// TemplateCount is the number of distinct templates.
	TemplateCount int

	// VarianceBound, when non-nil, substitutes a conservative upper bound
	// for the sample variance of the estimator variable (Section 6.2's
	// σ²_max), making Pr(CS) conservative. It is consulted per variance
	// with its sample size.
	VarianceBound func(n int) (s2 float64, ok bool)

	// CallCost, when non-nil, gives the relative optimization overhead of
	// evaluating query q (Section 5.2's non-constant optimization times):
	// sample allocation then maximizes variance reduction per unit of
	// overhead instead of per call. Termination budgets (MaxCalls) still
	// count calls.
	CallCost func(q int) float64

	// WarmState, when non-nil and compatible with this run (same scheme
	// and stratification mode, every configuration fingerprint present in
	// the snapshot), seeds the sampler from a prior run's snapshot:
	// unchanged templates keep their strata and prior moments and get a
	// reduced pilot (capped at warmPilot per stratum), while new or
	// drifted templates are re-piloted from scratch. An incompatible or
	// empty snapshot degrades to a cold start that is bit-identical to
	// WarmState == nil.
	WarmState *StratState
	// TemplateSigs identifies the current templates for warm starting and
	// state capture (dense template order); required for both.
	TemplateSigs []TemplateSig
	// ConfigFingerprints aligns configurations across runs (canonical
	// physical.Configuration fingerprints, one per oracle configuration);
	// required for warm starting and state capture.
	ConfigFingerprints []string
	// CaptureState records the final stratification into Result.State
	// (requires TemplateSigs and ConfigFingerprints).
	CaptureState bool

	// Tracer, when non-nil, receives structured events for every sampling
	// round, stratification split, elimination and allocation decision.
	// The nil default is a no-op costing one nil-check per round.
	Tracer *obs.Tracer

	// Metrics, when non-nil, registers the sampler's counters
	// (sampling_samples_total, sampling_rounds_total, sampling_splits_total,
	// sampling_eliminations_total) on the registry.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.9
	}
	if o.NMin == 0 {
		o.NMin = stats.NMin
	}
	if o.StabilityWindow <= 0 {
		o.StabilityWindow = 1
	}
	return o
}

// ctxErr reports the run context's error, nil when no context was set.
func (o *Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

func (o Options) validate(oracle Oracle) error {
	if o.RNG == nil {
		return errors.New("sampling: Options.RNG is required")
	}
	if oracle.K() < 2 {
		return errors.New("sampling: need at least two configurations")
	}
	if oracle.N() < 1 {
		return errors.New("sampling: empty workload")
	}
	if o.Strat != NoStrat {
		if len(o.TemplateIndex) != oracle.N() || o.TemplateCount <= 0 {
			return errors.New("sampling: stratification requires TemplateIndex/TemplateCount")
		}
	}
	return nil
}

// Result reports a selection run.
type Result struct {
	// Best is the selected configuration index.
	Best int
	// PrCS is the estimated probability of correct selection at
	// termination.
	PrCS float64
	// SampledQueries is the number of distinct query evaluations performed
	// (Delta counts each sampled query once even though it is costed in
	// every configuration).
	SampledQueries int
	// OptimizerCalls is the number of what-if calls consumed.
	OptimizerCalls int64
	// Eliminated flags configurations dropped by the elimination
	// optimization.
	Eliminated []bool
	// Strata is the number of strata at termination.
	Strata int
	// Splits is the number of progressive splits performed.
	Splits int
	// DegradedQueries counts probes the oracle asked to skip-and-reweight
	// (ErrSkipQuery): each dropped its query from the stratum and shrank
	// the stratum weight. Zero with an infallible oracle.
	DegradedQueries int
	// State, when Options.CaptureState was set (and TemplateSigs /
	// ConfigFingerprints were provided), snapshots the final
	// stratification for a later warm start.
	State *StratState
	// Warm reports what a warm start reused (zero value on cold runs).
	Warm WarmInfo
}
