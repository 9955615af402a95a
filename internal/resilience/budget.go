package resilience

import "sync/atomic"

// Budget is a concurrency-safe cumulative resource budget shared by many
// consumers — the advisor service (internal/serve) gives every tenant one
// Budget metering what-if optimizer calls across all of the tenant's
// jobs, so a single noisy tenant exhausts its own allowance instead of
// starving the shared runner pool.
//
// A Budget only accumulates: Charge records usage after the fact (a job's
// final call count is only known when it finishes), and admission control
// consults Exhausted before accepting new work. The race where several
// in-flight jobs overshoot the cap together is deliberate — the cap is an
// admission threshold, not a hard interlock — and mirrors how the PR-5
// error budget is spent: the first *observation* past the limit shuts the
// door for subsequent requests.
type Budget struct {
	// cap is the total allowance; 0 or negative means unlimited.
	cap  int64
	used atomic.Int64
}

// NewBudget returns a budget with the given cap; cap <= 0 is unlimited.
func NewBudget(cap int64) *Budget { return &Budget{cap: cap} }

// Unlimited reports whether the budget has no cap.
func (b *Budget) Unlimited() bool { return b == nil || b.cap <= 0 }

// Cap returns the configured allowance (0 when unlimited).
func (b *Budget) Cap() int64 {
	if b == nil || b.cap <= 0 {
		return 0
	}
	return b.cap
}

// Used returns the cumulative usage charged so far.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Charge records n units of usage and returns the new cumulative total.
// Negative n is ignored.
func (b *Budget) Charge(n int64) int64 {
	if b == nil {
		return 0
	}
	if n < 0 {
		n = 0
	}
	return b.used.Add(n)
}

// Exhausted reports whether cumulative usage has reached the cap. An
// unlimited budget is never exhausted.
func (b *Budget) Exhausted() bool {
	if b.Unlimited() {
		return false
	}
	return b.used.Load() >= b.cap
}
