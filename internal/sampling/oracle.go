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
	"errors"
	"sync/atomic"

	"physdes/internal/par"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
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

// BatchOracle is an Oracle that serves a whole batch of pairs itself
// instead of having costBatch fan its Cost out over a pool — worth it only
// when a probe costs less than pool dispatch, as a cost-matrix lookup
// does. Implementations must charge exactly one optimizer call per pair
// (identical accounting to len(pairs) Cost calls) and must produce values
// identical to serial Cost at every parallelism level — the samplers rely
// on this for their determinism contract.
type BatchOracle interface {
	Oracle
	// BatchCost evaluates pairs[i] into out[i] using up to parallelism
	// workers. len(out) must be >= len(pairs).
	BatchCost(pairs []Pair, out []float64, parallelism int)
}

// minPoolBatch is the batch size below which dispatching to the worker
// pool costs more than the microsecond-scale probes it would overlap:
// pooling every Delta row of a k=4 selection at two workers made
// BenchmarkSelectEndToEnd 10-23% slower.
const minPoolBatch = 16

// costBatch evaluates pairs[i] into out[i] and its error into errs[i]
// (nil on success); it is the one place probes fan out. With more than
// one worker and at least minPoolBatch pairs it runs the oracle's own
// CostErr (fallible) or Cost (infallible) over a bounded pool (see
// fanOut); an oracle that batches itself (BatchOracle) serves the whole
// batch instead. Otherwise it probes in pair order, and a fallible oracle
// stops at the first non-skip error, leaving later slots untouched.
// Values are identical at every parallelism level as long as each probe's
// outcome depends only on its own (query, configuration) identity.
func costBatch(o Oracle, pairs []Pair, out []float64, errs []error, parallelism int) {
	clear(errs[:len(pairs)])
	pool := parallelism > 1 && len(pairs) >= minPoolBatch
	if eo, ok := o.(ErrOracle); ok {
		if pool {
			fanOut(len(pairs), parallelism, func(i int) {
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
	if pool {
		if bo, ok := o.(BatchOracle); ok {
			bo.BatchCost(pairs, out, parallelism)
			return
		}
		fanOut(len(pairs), parallelism, func(i int) {
			out[i] = o.Cost(pairs[i].Q, pairs[i].J)
		})
		return
	}
	for i, p := range pairs {
		out[i] = o.Cost(p.Q, p.J)
	}
}

// fanOut runs probe(i) for every i in [0, n) over up to parallelism
// workers, each taking one contiguous span of indices. Consecutive pairs
// usually share a statement, and so atom-store entries: workers taking
// interleaved indices would wait on each other's misses, which made
// BenchmarkSelectParallel at two workers 20-30% slower than one span each.
func fanOut(n, parallelism int, probe func(i int)) {
	workers := min(parallelism, n)
	par.For(workers, workers, func(w int) {
		for i := w * n / workers; i < (w+1)*n/workers; i++ {
			probe(i)
		}
	})
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

// CostSource is the what-if cost source behind a LiveOracle: the plain
// optimizer (*optimizer.Optimizer, every probe one what-if call) or the
// atom store (*optimizer.AtomicCache, only unseen atoms reach the
// optimizer). Cost must be safe for concurrent use, and Calls reports the
// what-if calls charged so far.
type CostSource interface {
	Cost(a *sqlparse.Analysis, cfg *physical.Configuration) float64
	Calls() int64
}

// LiveOracle evaluates costs on demand through a what-if cost source. The
// oracle caches nothing itself: whatever sharing there is lives in the
// source, and Calls reports the source's bill, so sharing through the
// atom store shows up directly in the paper's accounting.
type LiveOracle struct {
	Src      CostSource
	Workload *workload.Workload
	Configs  []*physical.Configuration
}

// NewLiveOracle builds a live oracle over a cost source.
func NewLiveOracle(src CostSource, w *workload.Workload, configs []*physical.Configuration) *LiveOracle {
	return &LiveOracle{Src: src, Workload: w, Configs: configs}
}

// Cost implements Oracle.
func (o *LiveOracle) Cost(i, j int) float64 {
	return o.Src.Cost(o.Workload.Queries[i].Analysis, o.Configs[j])
}

// N implements Oracle.
func (o *LiveOracle) N() int { return o.Workload.Size() }

// K implements Oracle.
func (o *LiveOracle) K() int { return len(o.Configs) }

// Calls implements Oracle.
func (o *LiveOracle) Calls() int64 { return o.Src.Calls() }
