// Package resilience hardens a fallible what-if oracle (sampling.ErrOracle)
// against transient faults: bounded retries with deterministic seeded
// backoff jitter, a per-oracle error budget, and two degradation policies
// for probes that stay broken after retries —
//
//   - Skip (skip-and-reweight): the probe reports sampling.ErrSkipQuery and
//     the sampler drops the query from its stratum, renormalizing the
//     stratum weight. The stratified estimator stays unbiased for the
//     surviving sub-population because queries fail independently of their
//     (never observed) costs: conditioning on the failure set, the
//     remaining draws are still a uniform sample of the reweighted stratum.
//   - Conservative: the probe is answered with a caller-supplied fallback
//     bound — core.Select wires the Section 6 upper cost interval endpoint
//     C_hi(i,j), so the substituted value can only inflate the apparent
//     cost of the affected configuration and Pr(CS) remains a valid lower
//     bound (the same argument as Section 6.2's σ²_max substitution).
//
// Everything is deterministic by construction: backoff jitter derives from
// a seeded hash of (query, configuration, attempt) — never from wall-clock
// time — so decisions are order-independent and identical at every
// parallelism level. Probe latency is observed, not enforced: an inner
// oracle that reports *virtual* latencies (see TimedOracle) feeds the
// oracle_latency_seconds histogram.
package resilience

import (
	"errors"
	"fmt"
	"sync/atomic"

	"physdes/internal/obs"
	"physdes/internal/par"
	"physdes/internal/sampling"
)

// Policy selects what happens to a probe whose retries are exhausted.
type Policy int

// Degradation policies.
const (
	// Fail propagates the probe error, aborting the selection run.
	Fail Policy = iota
	// Skip degrades by returning sampling.ErrSkipQuery: the sampler drops
	// the query and reweights its stratum (skip-and-reweight).
	Skip
	// Conservative degrades by substituting Options.Fallback(i, j) — a
	// conservative cost bound — for the unavailable probe.
	Conservative
)

func (p Policy) String() string {
	switch p {
	case Fail:
		return "fail"
	case Skip:
		return "skip"
	case Conservative:
		return "conservative"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ErrBudgetExhausted wraps the probe error once the oracle's degradation
// budget (Options.ErrorBudget) is spent: further failures abort the run
// instead of degrading silently.
var ErrBudgetExhausted = errors.New("resilience: oracle error budget exhausted")

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as non-retryable: the wrapper skips straight to its
// degradation policy instead of burning retry attempts. A nil err returns
// nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// TimedOracle is an ErrOracle whose probes report a virtual latency (in
// virtual milliseconds) alongside the cost. The wrapper observes it —
// never the wall clock — on the oracle_latency_seconds histogram, keeping
// latency accounting deterministic and replayable. The fault-injection
// harness implements it to simulate latency spikes.
type TimedOracle interface {
	sampling.ErrOracle
	// CostTimed returns the cost and the virtual latency of the probe.
	CostTimed(i, j int) (cost, latencyMS float64, err error)
}

// Options configures the resilience wrapper.
type Options struct {
	// MaxRetries is the number of re-attempts after a failed probe
	// (0 = no retries; a probe is tried 1+MaxRetries times at most).
	MaxRetries int
	// BackoffBaseMS and BackoffMaxMS shape the virtual exponential backoff
	// schedule: attempt a waits min(Base·2^(a−1), Max) scaled by a seeded
	// jitter factor in [0.5, 1). Defaults 1ms / 1000ms.
	BackoffBaseMS float64
	BackoffMaxMS  float64
	// Seed drives the backoff jitter hash. Runs with equal seeds replay
	// identical schedules.
	Seed uint64
	// Policy selects the degradation mode once retries are exhausted
	// (default Fail).
	Policy Policy
	// ErrorBudget bounds the number of degraded probes per oracle; once
	// exceeded, further failures return ErrBudgetExhausted. <= 0 means
	// unlimited.
	ErrorBudget int
	// Fallback supplies the conservative substitute cost for policy
	// Conservative; required in that mode.
	Fallback func(i, j int) float64
	// Sleep, when non-nil, is invoked with each backoff delay in virtual
	// milliseconds. The nil default records the delay without sleeping —
	// retries against an in-process oracle are instantaneous and
	// deterministic.
	Sleep func(ms float64)
	// Metrics, when non-nil, registers oracle_retries_total,
	// oracle_faults_total, oracle_degraded_queries_total and — when the
	// inner oracle reports virtual latencies — oracle_latency_seconds.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.BackoffBaseMS <= 0 {
		o.BackoffBaseMS = 1
	}
	if o.BackoffMaxMS <= 0 {
		o.BackoffMaxMS = 1000
	}
	return o
}

// Stats is a point-in-time snapshot of the wrapper's accounting.
type Stats struct {
	// Retries counts re-attempted probes (attempt 2 and beyond).
	Retries int64
	// Faults counts failed probe attempts, including ones that later
	// succeeded on retry.
	Faults int64
	// Degraded counts probes answered by the degradation policy (skipped
	// or substituted) after exhausting retries.
	Degraded int64
	// BackoffMS is the total virtual backoff delay accumulated.
	BackoffMS float64
}

// Oracle wraps a fallible oracle with retries, an error budget and a
// degradation policy. It implements sampling.ErrOracle and
// sampling.BatchErrOracle; per-probe decisions depend only on
// (query, configuration, attempt) so results are identical at every
// parallelism level.
type Oracle struct {
	inner sampling.ErrOracle
	timed TimedOracle
	opts  Options

	retries  *obs.Counter
	faults   *obs.Counter
	degraded *obs.Counter
	latency  *obs.Histogram

	nRetries   atomic.Int64
	nFaults    atomic.Int64
	nDegraded  atomic.Int64
	budgetUsed atomic.Int64
	backoffUMS atomic.Int64 // total backoff in virtual microseconds
}

// Wrap hardens o with opts. Infallible oracles are lifted via
// sampling.AsErrOracle first, so wrapping them is free of behaviour
// change: their probes never fail and the wrapper adds one type assertion
// per call.
func Wrap(o sampling.Oracle, opts Options) *Oracle {
	opts = opts.withDefaults()
	if opts.Policy == Conservative && opts.Fallback == nil {
		panic("resilience: policy Conservative requires Options.Fallback")
	}
	w := &Oracle{inner: sampling.AsErrOracle(o), opts: opts}
	w.timed, _ = o.(TimedOracle)
	if opts.Metrics != nil {
		w.retries = opts.Metrics.Counter("oracle_retries_total")
		w.faults = opts.Metrics.Counter("oracle_faults_total")
		w.degraded = opts.Metrics.Counter("oracle_degraded_queries_total")
		if w.timed != nil {
			w.latency = opts.Metrics.Histogram("oracle_latency_seconds")
		}
	}
	return w
}

// Stats returns the wrapper's accounting so far.
func (w *Oracle) Stats() Stats {
	return Stats{
		Retries:   w.nRetries.Load(),
		Faults:    w.nFaults.Load(),
		Degraded:  w.nDegraded.Load(),
		BackoffMS: float64(w.backoffUMS.Load()) / 1000,
	}
}

// N implements sampling.Oracle.
func (w *Oracle) N() int { return w.inner.N() }

// K implements sampling.Oracle.
func (w *Oracle) K() int { return w.inner.K() }

// Calls implements sampling.Oracle. Every attempt — including failed and
// retried ones — charges the inner oracle, matching a real what-if service
// that burns optimizer time before failing.
func (w *Oracle) Calls() int64 { return w.inner.Calls() }

// Cost implements sampling.Oracle by delegating to the inner oracle
// directly, bypassing retries and degradation: the samplers always prefer
// CostErr when it is available, so Cost exists only to satisfy consumers
// of the infallible interface.
func (w *Oracle) Cost(i, j int) float64 { return w.inner.Cost(i, j) }

// probe performs a single attempt, observing the virtual latency of a
// successful probe when the latency histogram is attached.
func (w *Oracle) probe(i, j int) (float64, error) {
	if w.latency != nil {
		c, lat, err := w.timed.CostTimed(i, j)
		if err == nil {
			w.latency.Observe(lat / 1000)
		}
		return c, err
	}
	return w.inner.CostErr(i, j)
}

// CostErr implements sampling.ErrOracle: attempt the probe up to
// 1+MaxRetries times with seeded backoff, then degrade per the policy.
func (w *Oracle) CostErr(i, j int) (float64, error) {
	var last error
	for attempt := 0; attempt <= w.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			w.nRetries.Add(1)
			w.retries.Inc()
			w.backoff(i, j, attempt)
		}
		c, err := w.probe(i, j)
		if err == nil {
			return c, nil
		}
		w.nFaults.Add(1)
		w.faults.Inc()
		last = err
		if IsPermanent(err) {
			break
		}
	}
	return w.degrade(i, j, last)
}

// BatchCostErr implements sampling.BatchErrOracle by fanning the pairs
// over a bounded pool. Each slot's retries and degradation decisions
// depend only on its own (query, configuration) identity, so out and errs
// are identical to the serial path at every parallelism level.
func (w *Oracle) BatchCostErr(pairs []sampling.Pair, out []float64, errs []error, parallelism int) {
	par.For(len(pairs), parallelism, func(idx int) {
		out[idx], errs[idx] = w.CostErr(pairs[idx].Q, pairs[idx].J)
	})
}

// backoff accrues (and optionally sleeps) the jittered exponential delay
// before retry `attempt` of probe (i, j).
func (w *Oracle) backoff(i, j, attempt int) {
	d := w.opts.BackoffBaseMS * float64(int64(1)<<uint(minIntR(attempt-1, 30)))
	if d > w.opts.BackoffMaxMS {
		d = w.opts.BackoffMaxMS
	}
	// Jitter in [0.5, 1): decorrelates concurrent retry storms while
	// staying a pure function of (seed, i, j, attempt).
	u := float64(mix64(w.opts.Seed, uint64(i)<<32|uint64(uint32(j)), uint64(attempt))>>11) / (1 << 53)
	d *= 0.5 + 0.5*u
	w.backoffUMS.Add(int64(d * 1000))
	if w.opts.Sleep != nil {
		w.opts.Sleep(d)
	}
}

// degrade resolves an exhausted probe per the configured policy.
func (w *Oracle) degrade(i, j int, cause error) (float64, error) {
	switch w.opts.Policy {
	case Skip, Conservative:
		if b := w.opts.ErrorBudget; b > 0 && w.budgetUsed.Add(1) > int64(b) {
			return 0, fmt.Errorf("probe (%d,%d): %w (budget %d, cause: %v)",
				i, j, ErrBudgetExhausted, b, cause)
		}
		w.nDegraded.Add(1)
		w.degraded.Inc()
		if w.opts.Policy == Skip {
			return 0, fmt.Errorf("probe (%d,%d) failed after retries (%v): %w",
				i, j, cause, sampling.ErrSkipQuery)
		}
		return w.opts.Fallback(i, j), nil
	default:
		return 0, fmt.Errorf("resilience: probe (%d,%d) failed after %d attempts: %w",
			i, j, w.opts.MaxRetries+1, cause)
	}
}

// mix64 is a splitmix64-style avalanche of three words — the deterministic
// randomness source for jitter (and, in the fault-injection harness, for
// fault decisions).
func mix64(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash64 exposes mix64 for decorators (the fault-injection harness) that
// need the same deterministic decision source.
func Hash64(a, b, c uint64) uint64 { return mix64(a, b, c) }

func minIntR(a, b int) int {
	if a < b {
		return a
	}
	return b
}
