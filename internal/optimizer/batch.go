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

// BatchCtx is Batch with cancellation; see BatchIntoCtx.
func (o *Optimizer) BatchCtx(ctx context.Context, reqs []Request, parallelism int) ([]float64, error) {
	out := make([]float64, len(reqs))
	if err := o.BatchIntoCtx(ctx, reqs, out, parallelism); err != nil {
		return nil, err
	}
	return out, nil
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

// Batch evaluates every request through the memo table over a bounded
// worker pool, returning costs in request order. Hits and misses are
// accounted per request exactly like a serial loop of Cost calls: before
// dispatch the batch is resolved against the memo and deduplicated by
// cache key, so requests aliasing the same (statement, configuration)
// within one batch charge a single miss — the first occurrence — and the
// aliases count as hits (see TestCacheBatchAliasAccounting).
func (c *Cached) Batch(reqs []Request, parallelism int) []float64 {
	out := make([]float64, len(reqs))
	c.BatchInto(reqs, out, parallelism)
	return out
}

// BatchInto is Batch writing into a caller-provided slice.
func (c *Cached) BatchInto(reqs []Request, out []float64, parallelism int) {
	//physdes:detachedctx compatibility wrapper for pre-cancellation callers; BatchIntoCtx is the cancellable path
	c.BatchIntoCtx(context.Background(), reqs, out, parallelism) //physdes:errok Background never cancels and ctx.Err is the only error source, so the result is always nil
}

// BatchIntoCtx is BatchInto with cancellation; see the uncached
// Optimizer.BatchIntoCtx for the contract.
func (c *Cached) BatchIntoCtx(ctx context.Context, reqs []Request, out []float64, parallelism int) error {
	n := len(reqs)
	if n == 0 {
		return ctx.Err()
	}
	if len(out) < n {
		panic("optimizer: BatchInto output slice shorter than request slice")
	}
	if parallelism <= 1 || n < minParallelBatch {
		for i, r := range reqs {
			if err := ctx.Err(); err != nil {
				return err
			}
			out[i] = c.Cost(r.Analysis, r.Config)
		}
		return nil
	}
	// Resolve memo hits and dedupe aliased misses serially before any pool
	// dispatch: slot[i] is the index of request i's value in the unique
	// miss list, or -1 when out[i] was already served from the memo.
	m := c.metrics.Load()
	slot := make([]int, n)
	uniqIdx := make(map[cacheKey]int, n)
	var uniq []Request
	var uniqKeys []cacheKey
	for i, r := range reqs {
		if err := ctx.Err(); err != nil {
			return err
		}
		key := keyOf(r.Analysis, r.Config)
		if u, ok := uniqIdx[key]; ok {
			// Alias of an in-batch miss: serial evaluation would find the
			// first occurrence's stored value, so it counts as a hit.
			slot[i] = u
			c.hits.Add(1)
			if m != nil {
				m.hits.Inc()
			}
			continue
		}
		if v, ok := shardOf(&c.shards, r.Analysis, r.Config).get(key); ok {
			out[i] = v
			slot[i] = -1
			c.hits.Add(1)
			if m != nil {
				m.hits.Inc()
			}
			continue
		}
		c.misses.Add(1)
		if m != nil {
			m.misses.Inc()
		}
		slot[i] = len(uniq)
		uniqIdx[key] = len(uniq)
		uniq = append(uniq, r)
		uniqKeys = append(uniqKeys, key)
	}
	if len(uniq) == 0 {
		return nil
	}
	vals := make([]float64, len(uniq))
	if err := c.inner.BatchIntoCtx(ctx, uniq, vals, parallelism); err != nil {
		return err
	}
	for u, key := range uniqKeys {
		if shardOf(&c.shards, uniq[u].Analysis, uniq[u].Config).put(key, vals[u]) {
			c.entries.Add(1)
		}
	}
	if m != nil {
		m.entries.Set(float64(c.entries.Load()))
	}
	for i := range reqs {
		if slot[i] >= 0 {
			out[i] = vals[slot[i]]
		}
	}
	return nil
}
