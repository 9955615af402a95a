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

// BatchOracle is an Oracle that serves a whole batch of pairs itself
// instead of having costBatch probe it pair by pair — worth it when the
// oracle can share work across a batch's pairs, as a live oracle costing
// a Delta row's statement once under all its configurations does.
// Implementations must produce the same values and the same Calls() as
// len(pairs) Cost calls in pair order — the samplers rely on this for
// their determinism contract.
type BatchOracle interface {
	Oracle
	// BatchCost evaluates pairs[i] into out[i] on the caller's goroutine;
	// len(out) must be >= len(pairs). The samplers pass 1 for parallelism,
	// which the oracles in this package ignore.
	BatchCost(pairs []Pair, out []float64, parallelism int)
}

// costBatch evaluates pairs[i] into out[i] and its error into errs[i]
// (nil on success). An infallible oracle that batches itself
// (BatchOracle) serves every batch. Any other oracle is probed pair by
// pair, in pair order, through its fallible view (AsErrOracle), since
// each probe can fail by itself: the loop stops at the first non-skip
// error and leaves later slots untouched.
func costBatch(o Oracle, pairs []Pair, out []float64, errs []error) {
	clear(errs[:len(pairs)])
	if _, fallible := o.(ErrOracle); !fallible {
		if bo, ok := o.(BatchOracle); ok {
			bo.BatchCost(pairs, out, 1)
			return
		}
	}
	eo := AsErrOracle(o)
	for i, p := range pairs {
		out[i], errs[i] = eo.CostErr(p.Q, p.J)
		if errs[i] != nil && !errors.Is(errs[i], ErrSkipQuery) {
			return
		}
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

// BatchCost implements BatchOracle, charging one synthetic call per pair
// with one counter update. parallelism is unused.
func (o *MatrixOracle) BatchCost(pairs []Pair, out []float64, _ int) {
	for i, p := range pairs {
		out[i] = o.M.Costs[p.Q][p.J]
	}
	o.calls.Add(int64(len(pairs)))
}

// LiveOracle evaluates costs on demand through the atom store, which
// reaches the what-if optimizer only for atoms it has not seen. The
// oracle caches nothing itself: the sharing lives in the store, and Calls
// reports the store's bill, so it shows up directly in the paper's
// accounting.
type LiveOracle struct {
	Src      *optimizer.AtomicCache
	Workload *workload.Workload
	Configs  []*physical.Configuration
}

// NewLiveOracle builds a live oracle over an atom store.
func NewLiveOracle(src *optimizer.AtomicCache, w *workload.Workload, configs []*physical.Configuration) *LiveOracle {
	return &LiveOracle{Src: src, Workload: w, Configs: configs}
}

// Cost implements Oracle.
func (o *LiveOracle) Cost(i, j int) float64 {
	return o.Src.Cost(o.Workload.Queries[i].Analysis, o.Configs[j])
}

// rowStackLen is how many configurations of one row BatchCost hands the
// atom store at a time; a longer row is costed in pieces.
const rowStackLen = 256

// BatchCost implements BatchOracle. It walks the batch as rows — maximal
// runs of pairs with one query, as a Delta row lays them out — and costs
// each row's statement once under all the row's configurations
// (optimizer.AtomicCache.CostRow). parallelism is unused. The oracle
// holds no scratch: every row's lives on its caller's stack.
//
//physdes:zeroalloc
func (o *LiveOracle) BatchCost(pairs []Pair, out []float64, _ int) {
	var cfgBuf [rowStackLen]*physical.Configuration
	for lo := 0; lo < len(pairs); {
		q := pairs[lo].Q
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].Q == q && hi-lo < rowStackLen {
			hi++
		}
		cfgs := cfgBuf[:hi-lo]
		for i := range cfgs {
			cfgs[i] = o.Configs[pairs[lo+i].J]
		}
		o.Src.CostRow(o.Workload.Queries[q].Analysis, cfgs, out[lo:hi])
		lo = hi
	}
}

// N implements Oracle.
func (o *LiveOracle) N() int { return o.Workload.Size() }

// K implements Oracle.
func (o *LiveOracle) K() int { return len(o.Configs) }

// Calls implements Oracle.
func (o *LiveOracle) Calls() int64 { return o.Src.Calls() }
