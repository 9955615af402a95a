// Package resilience hardens a fallible what-if oracle (sampling.ErrOracle)
// against transient faults: bounded retries, a per-oracle error budget,
// and two degradation policies for probes that stay broken after retries —
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
// Retries run back to back, with no backoff and no wall-clock wait: a
// probe's retry outcome depends only on its own attempts, so it is the
// same whatever order the probes run in.
package resilience

import (
	"errors"
	"fmt"
	"sync/atomic"

	"physdes/internal/obs"
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

// Options configures the resilience wrapper.
type Options struct {
	// MaxRetries is the number of re-attempts after a failed probe
	// (0 = no retries; a probe is tried 1+MaxRetries times at most).
	MaxRetries int
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
	// Metrics, when non-nil, registers oracle_retries_total,
	// oracle_faults_total and oracle_degraded_queries_total.
	Metrics *obs.Registry
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
}

// Oracle wraps a fallible oracle with retries, an error budget and a
// degradation policy. It implements sampling.ErrOracle; the sampler fans
// its probes out.
type Oracle struct {
	inner sampling.ErrOracle
	opts  Options

	retries  *obs.Counter
	faults   *obs.Counter
	degraded *obs.Counter

	nRetries   atomic.Int64
	nFaults    atomic.Int64
	nDegraded  atomic.Int64
	budgetUsed atomic.Int64
}

// Wrap hardens o with opts. Infallible oracles are lifted via
// sampling.AsErrOracle first, so wrapping them is free of behaviour
// change: their probes never fail and the wrapper adds one type assertion
// per call.
func Wrap(o sampling.Oracle, opts Options) *Oracle {
	if opts.Policy == Conservative && opts.Fallback == nil {
		panic("resilience: policy Conservative requires Options.Fallback")
	}
	w := &Oracle{inner: sampling.AsErrOracle(o), opts: opts}
	if opts.Metrics != nil {
		w.retries = opts.Metrics.Counter("oracle_retries_total")
		w.faults = opts.Metrics.Counter("oracle_faults_total")
		w.degraded = opts.Metrics.Counter("oracle_degraded_queries_total")
	}
	return w
}

// Stats returns the wrapper's accounting so far.
func (w *Oracle) Stats() Stats {
	return Stats{
		Retries:  w.nRetries.Load(),
		Faults:   w.nFaults.Load(),
		Degraded: w.nDegraded.Load(),
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

// CostErr implements sampling.ErrOracle: attempt the probe up to
// 1+MaxRetries times back to back, then degrade per the policy.
func (w *Oracle) CostErr(i, j int) (float64, error) {
	var last error
	for attempt := 0; attempt <= w.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			w.nRetries.Add(1)
			w.retries.Inc()
		}
		c, err := w.inner.CostErr(i, j)
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
