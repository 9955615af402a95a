// Package faultinject provides a deterministic fault-injection decorator
// for what-if oracles: transient faults, permanently broken probes and
// per-query-range error bursts, all decided by a seeded hash of (query,
// configuration, attempt) — never by wall-clock time or shared mutable RNG
// state. Decisions are therefore order-independent: a probe fails
// identically whether it is evaluated serially, in a batch, or retried
// after unrelated probes, so a run is replayable from its seed alone.
//
// At zero fault rates the decorator is a pure pass-through: costs, call
// accounting and every sampler decision are byte-identical to the
// unwrapped oracle (the zero-rate hash comparisons always pass).
package faultinject

import (
	"fmt"
	"sync/atomic"

	"physdes/internal/resilience"
	"physdes/internal/sampling"
)

// Hash tags separating the decision streams.
const (
	tagTransient = 0x7472616e7369656e // "transien"
	tagPermanent = 0x7065726d616e656e // "permanen"
)

// Options configures the injected fault distribution. All rates are
// probabilities in [0, 1]; zero disables that fault class.
type Options struct {
	// Seed selects the fault pattern. Equal seeds replay identical faults.
	Seed uint64
	// TransientRate is the per-attempt probability that a probe fails with
	// a retryable error. Retrying the same probe redraws the decision, so
	// with rate p and r retries a probe stays failed with probability
	// p^(r+1).
	TransientRate float64
	// PermanentRate is the per-pair probability that probe (i, j) is
	// permanently broken: every attempt fails with a resilience.Permanent
	// error (think dropped statistics or an unsupported statement).
	PermanentRate float64
	// BurstLo/BurstHi bound a half-open query range [BurstLo, BurstHi)
	// whose probes fail transiently with the additional rate BurstRate —
	// modelling a fault burst localized to one stratum of the workload.
	BurstLo, BurstHi int
	// BurstRate is the extra transient-failure probability inside the
	// burst range.
	BurstRate float64
}

// Stats counts the faults the decorator actually injected.
type Stats struct {
	// Transient counts injected transient failures (burst failures
	// included).
	Transient int64
	// Permanent counts attempts failed by a permanently broken pair.
	Permanent int64
}

// FaultyOracle decorates an oracle with injected faults. It implements
// sampling.ErrOracle.
type FaultyOracle struct {
	inner sampling.ErrOracle
	opts  Options
	k     int

	attempts []atomic.Int64 // per-(i,j) attempt counters, dense i*k+j

	transient atomic.Int64
	permanent atomic.Int64
}

// New decorates o with the fault distribution of opts.
func New(o sampling.Oracle, opts Options) *FaultyOracle {
	return &FaultyOracle{
		inner:    sampling.AsErrOracle(o),
		opts:     opts,
		k:        o.K(),
		attempts: make([]atomic.Int64, o.N()*o.K()),
	}
}

// Stats returns the injected-fault counts so far.
func (f *FaultyOracle) Stats() Stats {
	return Stats{
		Transient: f.transient.Load(),
		Permanent: f.permanent.Load(),
	}
}

// N implements sampling.Oracle.
func (f *FaultyOracle) N() int { return f.inner.N() }

// K implements sampling.Oracle.
func (f *FaultyOracle) K() int { return f.inner.K() }

// Calls implements sampling.Oracle: every attempt — failed or not —
// charges the inner oracle, like a real service that burns optimizer time
// before erroring out.
func (f *FaultyOracle) Calls() int64 { return f.inner.Calls() }

// Cost implements sampling.Oracle by delegating to the inner oracle,
// bypassing fault injection — it exists to satisfy infallible consumers;
// the samplers always take CostErr.
func (f *FaultyOracle) Cost(i, j int) float64 { return f.inner.Cost(i, j) }

// draw maps the decision stream (tag) for probe (i, j) attempt a onto
// [0, 1).
func (f *FaultyOracle) draw(tag uint64, i, j int, attempt int64) float64 {
	key := uint64(i)<<32 | uint64(uint32(j))
	h := mix64(f.opts.Seed^tag, key, uint64(attempt))
	return float64(h>>11) / (1 << 53)
}

// decide classifies attempt a of probe (i, j); it returns the probe error,
// nil when the attempt succeeds.
func (f *FaultyOracle) decide(i, j int, attempt int64) error {
	if f.opts.PermanentRate > 0 && f.draw(tagPermanent, i, j, 0) < f.opts.PermanentRate {
		f.permanent.Add(1)
		return resilience.Permanent(fmt.Errorf("faultinject: probe (%d,%d) permanently broken", i, j))
	}
	rate := f.opts.TransientRate
	if i >= f.opts.BurstLo && i < f.opts.BurstHi {
		rate += f.opts.BurstRate
	}
	if rate > 0 && f.draw(tagTransient, i, j, attempt) < rate {
		f.transient.Add(1)
		return fmt.Errorf("faultinject: probe (%d,%d) transient fault (attempt %d)", i, j, attempt)
	}
	return nil
}

// CostErr implements sampling.ErrOracle. The inner oracle is always
// charged, even for failed attempts.
func (f *FaultyOracle) CostErr(i, j int) (float64, error) {
	attempt := f.attempts[i*f.k+j].Add(1) - 1
	c, innerErr := f.inner.CostErr(i, j)
	err := f.decide(i, j, attempt)
	if innerErr != nil {
		return 0, innerErr
	}
	if err != nil {
		return 0, err
	}
	return c, nil
}

// mix64 is a splitmix64-style avalanche of three words — the deterministic
// randomness source for fault decisions.
func mix64(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
