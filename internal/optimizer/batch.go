package optimizer

import (
	"context"
	"sync/atomic"

	"physdes/internal/par"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// Request is one (statement, configuration) item of a batched what-if
// evaluation.
type Request struct {
	Analysis *sqlparse.Analysis
	Config   *physical.Configuration
}

// minParallelBatch is the batch size below which dispatching to the worker
// pool costs more than the microsecond-scale what-if calls it would
// overlap; smaller batches evaluate inline on the calling goroutine.
const minParallelBatch = 16

// Batch evaluates every request over a bounded worker pool and returns the
// costs in request order. See BatchInto for the semantics.
func (o *Optimizer) Batch(reqs []Request, parallelism int) []float64 {
	out := make([]float64, len(reqs))
	o.BatchInto(reqs, out, parallelism)
	return out
}

// BatchInto evaluates reqs[i] into out[i] using up to `parallelism`
// workers (<= 1, or a batch below the inline threshold, evaluates
// serially). Each request charges exactly one optimizer call, so the call
// accounting is identical to len(reqs) serial Cost invocations; the costs
// themselves are pure functions of (statement, configuration), so out is
// bit-identical at every parallelism level. Workers only write into their
// positional slot — order-sensitive reductions belong to the caller.
func (o *Optimizer) BatchInto(reqs []Request, out []float64, parallelism int) {
	//physdes:detachedctx compatibility wrapper for pre-cancellation callers; BatchIntoCtx is the cancellable path
	o.BatchIntoCtx(context.Background(), reqs, out, parallelism) //physdes:errok Background never cancels and ctx.Err is the only error source, so the result is always nil
}

// BatchIntoCtx is BatchInto with cancellation: once ctx is done no further
// request is dispatched (in-flight what-if calls run to completion) and
// the context error is returned — out then holds a mix of computed and
// untouched slots, and callers must treat the whole batch as abandoned.
// A nil return means every request was evaluated.
func (o *Optimizer) BatchIntoCtx(ctx context.Context, reqs []Request, out []float64, parallelism int) error {
	n := len(reqs)
	if n == 0 {
		return ctx.Err()
	}
	if len(out) < n {
		panic("optimizer: BatchInto output slice shorter than request slice")
	}
	m := o.metrics.Load()
	if m != nil {
		m.batches.Inc()
		m.batchReqs.Add(int64(n))
		m.batchSize.Observe(float64(n))
	}
	if parallelism <= 1 || n < minParallelBatch {
		for i, r := range reqs {
			if err := ctx.Err(); err != nil {
				return err
			}
			out[i] = o.Cost(r.Analysis, r.Config)
		}
		return nil
	}
	// claimed tracks pool saturation: batch_inflight is the number of busy
	// workers at any instant, batch_queue_depth the requests not yet
	// claimed from the current batch.
	var claimed atomic.Int64
	err := par.ForCtx(ctx, n, parallelism, func(i int) {
		if m != nil {
			m.batchInflight.Add(1)
			m.batchQueue.Set(float64(n) - float64(claimed.Add(1)))
		}
		out[i] = o.Cost(reqs[i].Analysis, reqs[i].Config)
		if m != nil {
			m.batchInflight.Add(-1)
		}
	})
	if m != nil {
		m.batchQueue.Set(0)
	}
	return err
}
