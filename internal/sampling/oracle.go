// Package sampling implements the paper's estimation machinery: Independent
// Sampling (Section 4.1), Delta Sampling (Section 4.2), the probability of
// correct selection Pr(CS) with the Bonferroni multi-way bound (Equation 3),
// workload stratification with the progressive splitting search of
// Algorithm 2 (Section 5.1), and the next-sample allocation heuristics of
// Section 5.2.
//
// The samplers consume costs through an Oracle so that the same code runs
// against a live what-if optimizer and against a precomputed cost matrix
// (the Monte-Carlo harness). Every cost retrieval is accounted as one
// optimizer call — the resource the paper minimizes.
package sampling

import (
	"context"
	"errors"
	"sync/atomic"

	"physdes/internal/optimizer"
	"physdes/internal/par"
	"physdes/internal/physical"
	"physdes/internal/workload"
)

// Oracle supplies optimizer-estimated costs of (query, configuration)
// pairs and tracks how many were requested.
type Oracle interface {
	// Cost returns the cost of query i under configuration j, charging one
	// optimizer call.
	Cost(i, j int) float64
	// N returns the workload size.
	N() int
	// K returns the number of configurations.
	K() int
	// Calls returns the number of optimizer calls charged so far.
	Calls() int64
}

// Pair identifies one (query, configuration) request of a batched cost
// evaluation: query index Q under configuration index J.
type Pair struct {
	Q, J int
}

// ErrOracle is an Oracle whose cost probes can fail — the contract for
// remote or flaky what-if services. The samplers always prefer CostErr
// over Cost when an oracle implements it, so wrapping decorators (fault
// injection, retries, degradation policies) see every probe.
//
// Infallible oracles wrap trivially: see AsErrOracle.
type ErrOracle interface {
	Oracle
	// CostErr returns the cost of query i under configuration j, or an
	// error when the probe could not produce one. Implementations decide
	// what a failed probe charges against Calls(); the built-in resilience
	// wrapper charges every attempt, matching a real what-if service that
	// burns optimizer time before failing.
	CostErr(i, j int) (float64, error)
}

// ErrSkipQuery is the sentinel a fallible oracle (typically the resilience
// wrapper in skip-and-reweight mode) returns — wrapped — to ask the
// sampler to degrade gracefully: drop the query from its stratum and
// renormalize the stratum weight, instead of failing the run. Any other
// CostErr error aborts the selection.
var ErrSkipQuery = errors.New("sampling: skip query and reweight stratum")

// errOracleAdapter lifts an infallible Oracle into an ErrOracle.
type errOracleAdapter struct{ Oracle }

func (a errOracleAdapter) CostErr(i, j int) (float64, error) { return a.Oracle.Cost(i, j), nil }

// AsErrOracle returns o's fallible view: o itself when it already
// implements ErrOracle, otherwise a trivial adapter whose CostErr never
// fails.
func AsErrOracle(o Oracle) ErrOracle {
	if eo, ok := o.(ErrOracle); ok {
		return eo
	}
	return errOracleAdapter{o}
}

// BatchOracle is an Oracle that can evaluate many pairs at once, fanning
// the work over a bounded pool. Implementations must charge exactly one
// optimizer call per pair (identical accounting to len(pairs) Cost calls)
// and must produce values identical to serial Cost at every parallelism
// level — the samplers rely on this for their determinism contract.
type BatchOracle interface {
	Oracle
	// BatchCost evaluates pairs[i] into out[i] using up to parallelism
	// workers. len(out) must be >= len(pairs).
	BatchCost(pairs []Pair, out []float64, parallelism int)
}

// costBatch evaluates pairs[i] into out[i] and its error into errs[i]
// (nil on success); it is the one place the samplers fan probes out. A
// fallible oracle's probes run through CostErr: over a bounded pool when
// more than one pair and worker are requested, otherwise in pair order,
// stopping at the first non-skip error and leaving later slots untouched.
// An infallible oracle runs through BatchOracle.BatchCost or serial Cost
// and reports no errors. A single pair never pays the pool's setup.
// Values are identical at every parallelism level as long as each probe's
// outcome depends only on its own (query, configuration) identity.
func costBatch(o Oracle, pairs []Pair, out []float64, errs []error, parallelism int) {
	clear(errs[:len(pairs)])
	pool := parallelism > 1 && len(pairs) > 1
	if eo, ok := o.(ErrOracle); ok {
		if pool {
			par.For(len(pairs), parallelism, func(i int) {
				out[i], errs[i] = eo.CostErr(pairs[i].Q, pairs[i].J)
			})
			return
		}
		for i, p := range pairs {
			out[i], errs[i] = eo.CostErr(p.Q, p.J)
			if errs[i] != nil && !errors.Is(errs[i], ErrSkipQuery) {
				return
			}
		}
		return
	}
	if bo, ok := o.(BatchOracle); ok && pool {
		bo.BatchCost(pairs, out, parallelism)
		return
	}
	for i, p := range pairs {
		out[i] = o.Cost(p.Q, p.J)
	}
}

// MatrixOracle replays a precomputed cost matrix, charging synthetic calls.
type MatrixOracle struct {
	M     *workload.CostMatrix
	calls atomic.Int64
}

// NewMatrixOracle wraps a cost matrix.
func NewMatrixOracle(m *workload.CostMatrix) *MatrixOracle {
	return &MatrixOracle{M: m}
}

// Cost implements Oracle.
func (o *MatrixOracle) Cost(i, j int) float64 {
	o.calls.Add(1)
	return o.M.Costs[i][j]
}

// N implements Oracle.
func (o *MatrixOracle) N() int { return o.M.N() }

// K implements Oracle.
func (o *MatrixOracle) K() int { return o.M.K() }

// Calls implements Oracle.
func (o *MatrixOracle) Calls() int64 { return o.calls.Load() }

// BatchCost implements BatchOracle. Matrix lookups are far cheaper than
// pool dispatch, so the batch is served inline; the synthetic call charge
// still matches one call per pair.
func (o *MatrixOracle) BatchCost(pairs []Pair, out []float64, parallelism int) {
	for i, p := range pairs {
		out[i] = o.M.Costs[p.Q][p.J]
	}
	o.calls.Add(int64(len(pairs)))
}

// ResetCalls zeroes the counter.
func (o *MatrixOracle) ResetCalls() { o.calls.Store(0) }

// LiveOracle evaluates costs through a what-if optimizer on demand, caching
// nothing: each request is a real optimizer call.
type LiveOracle struct {
	Opt      *optimizer.Optimizer
	Workload *workload.Workload
	Configs  []*physical.Configuration
}

// NewLiveOracle builds a live oracle.
func NewLiveOracle(opt *optimizer.Optimizer, w *workload.Workload, configs []*physical.Configuration) *LiveOracle {
	return &LiveOracle{Opt: opt, Workload: w, Configs: configs}
}

// Cost implements Oracle.
func (o *LiveOracle) Cost(i, j int) float64 {
	return o.Opt.Cost(o.Workload.Queries[i].Analysis, o.Configs[j])
}

// N implements Oracle.
func (o *LiveOracle) N() int { return o.Workload.Size() }

// K implements Oracle.
func (o *LiveOracle) K() int { return len(o.Configs) }

// Calls implements Oracle.
func (o *LiveOracle) Calls() int64 { return o.Opt.Calls() }

// BatchCost implements BatchOracle over the optimizer's batch pool.
func (o *LiveOracle) BatchCost(pairs []Pair, out []float64, parallelism int) {
	reqs := make([]optimizer.Request, len(pairs))
	for i, p := range pairs {
		reqs[i] = optimizer.Request{Analysis: o.Workload.Queries[p.Q].Analysis, Config: o.Configs[p.J]}
	}
	o.Opt.BatchInto(reqs, out, parallelism)
}

// SharedOracle evaluates costs through the atom store
// (optimizer.AtomicCache): each request is decomposed into the atomic
// sub-configurations the plan can read, only never-seen (query, atom)
// pairs reach the what-if optimizer, and the values are bit-identical to
// LiveOracle's. Calls() reports the inner optimizer's counter, so the
// sharing shows up directly in the paper's accounting: probes of
// overlapping configurations charge far fewer calls than N*K.
type SharedOracle struct {
	C        *optimizer.AtomicCache
	Workload *workload.Workload
	Configs  []*physical.Configuration
}

// NewSharedOracle builds a shared oracle over an atom store.
func NewSharedOracle(c *optimizer.AtomicCache, w *workload.Workload, configs []*physical.Configuration) *SharedOracle {
	return &SharedOracle{C: c, Workload: w, Configs: configs}
}

// Cost implements Oracle.
func (o *SharedOracle) Cost(i, j int) float64 {
	return o.C.Cost(o.Workload.Queries[i].Analysis, o.Configs[j])
}

// N implements Oracle.
func (o *SharedOracle) N() int { return o.Workload.Size() }

// K implements Oracle.
func (o *SharedOracle) K() int { return len(o.Configs) }

// Calls implements Oracle. Only atom-store misses reach the inner
// optimizer, so this counter is what the sharing saves.
func (o *SharedOracle) Calls() int64 { return o.C.Inner().Calls() }

// BatchCost implements BatchOracle through the atom store's deduplicating
// batch path; values and accounting match serial Cost at every parallelism.
func (o *SharedOracle) BatchCost(pairs []Pair, out []float64, parallelism int) {
	reqs := make([]optimizer.Request, len(pairs))
	for i, p := range pairs {
		reqs[i] = optimizer.Request{Analysis: o.Workload.Queries[p.Q].Analysis, Config: o.Configs[p.J]}
	}
	//physdes:detachedctx BatchOracle carries no context; the samplers check cancellation between batches
	o.C.BatchIntoCtx(context.Background(), reqs, out, parallelism) //physdes:errok Background never cancels and ctx.Err is the only error source, so the result is always nil
}
