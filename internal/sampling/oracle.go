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

	"physdes/internal/optimizer"
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
// instead of having costBatch probe it pair by pair — worth it when the
// oracle can share work across a batch's pairs, as a live oracle costing
// a Delta row's statement once under all its configurations does, or when
// a probe costs less than pool dispatch, as a cost-matrix lookup does.
// Implementations must produce the same values and the same Calls() as
// len(pairs) Cost calls in pair order, at every parallelism level — the
// samplers rely on this for their determinism contract.
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
// (nil on success). A fallible oracle (ErrOracle) is probed pair by pair,
// since each probe can fail by itself: with more than one worker and at
// least minPoolBatch pairs its CostErr runs over a bounded pool (see
// fanOut), otherwise in pair order, stopping at the first non-skip error
// and leaving later slots untouched. An infallible oracle that batches
// itself (BatchOracle) serves every batch, at every size and parallelism;
// any other oracle's Cost is fanned out or run in order like CostErr.
// Values are identical at every parallelism level as long as each probe's
// outcome depends only on its own (query, configuration) identity.
func costBatch(o Oracle, pairs []Pair, out []float64, errs []error, parallelism int) {
	clear(errs[:len(pairs)])
	pool := parallelism > 1 && len(pairs) >= minPoolBatch
	if eo, ok := o.(ErrOracle); ok {
		if pool {
			fanOut(len(pairs), parallelism, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i], errs[i] = eo.CostErr(pairs[i].Q, pairs[i].J)
				}
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
	if bo, ok := o.(BatchOracle); ok {
		bo.BatchCost(pairs, out, parallelism)
		return
	}
	if pool {
		fanOut(len(pairs), parallelism, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = o.Cost(pairs[i].Q, pairs[i].J)
			}
		})
		return
	}
	for i, p := range pairs {
		out[i] = o.Cost(p.Q, p.J)
	}
}

// fanOut splits [0, n) into up to parallelism contiguous spans and runs
// span(lo, hi) for each on its own worker. Consecutive pairs usually share
// a statement, and so atom-store entries: workers taking interleaved
// indices would wait on each other's misses, which made
// BenchmarkSelectParallel at two workers 20-30% slower than one span each.
func fanOut(n, parallelism int, span func(lo, hi int)) {
	workers := min(parallelism, n)
	par.For(workers, workers, func(w int) {
		span(w*n/workers, (w+1)*n/workers)
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

// BatchCost implements BatchOracle. It walks the batch as rows — maximal
// runs of pairs with one query, as a Delta row lays them out — and costs
// each row's statement once under all the row's configurations when the
// source is the atom store (optimizer.AtomicCache.CostRow), pair by pair
// otherwise. With more than one worker and at least minPoolBatch pairs
// the batch is cut into fanOut's spans, a span possibly cutting a row.
// The oracle holds no scratch: every row's lives on its caller's stack.
func (o *LiveOracle) BatchCost(pairs []Pair, out []float64, parallelism int) {
	if parallelism > 1 && len(pairs) >= minPoolBatch {
		fanOut(len(pairs), parallelism, func(lo, hi int) {
			o.costRows(pairs[lo:hi], out[lo:hi])
		})
		return
	}
	o.costRows(pairs, out)
}

// rowStackLen is how many configurations of one row costRows hands the
// atom store at a time; a longer row is costed in pieces.
const rowStackLen = 256

// costRows evaluates pairs[i] into out[i], one row at a time.
//
//physdes:zeroalloc
func (o *LiveOracle) costRows(pairs []Pair, out []float64) {
	ac, rows := o.Src.(*optimizer.AtomicCache)
	var cfgBuf [rowStackLen]*physical.Configuration
	for lo := 0; lo < len(pairs); {
		q := pairs[lo].Q
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].Q == q && hi-lo < rowStackLen {
			hi++
		}
		a := o.Workload.Queries[q].Analysis
		if rows {
			cfgs := cfgBuf[:hi-lo]
			for i := range cfgs {
				cfgs[i] = o.Configs[pairs[lo+i].J]
			}
			ac.CostRow(a, cfgs, out[lo:hi])
		} else {
			for i := lo; i < hi; i++ {
				out[i] = o.Src.Cost(a, o.Configs[pairs[i].J]) //physdes:allocok the other cost source, the plain optimizer, is allocation-free on the probe path (TestCostAllocFree)
			}
		}
		lo = hi
	}
}

// N implements Oracle.
func (o *LiveOracle) N() int { return o.Workload.Size() }

// K implements Oracle.
func (o *LiveOracle) K() int { return len(o.Configs) }

// Calls implements Oracle.
func (o *LiveOracle) Calls() int64 { return o.Src.Calls() }
