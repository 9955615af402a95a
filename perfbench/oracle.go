package main

import (
	"sync/atomic"

	"physdes/internal/obs"
	"physdes/internal/sampling"
)

// oracleTimes accumulates what timing oracles observed: wall time spent
// inside the wrapped oracle, probes requested, and batched traffic. One
// instance may be shared by many oracles running concurrently.
type oracleTimes struct {
	busyNS      atomic.Int64
	probes      atomic.Int64
	batches     atomic.Int64
	batchProbes atomic.Int64
}

// timingOracle is a pass-through oracle that times every probe. It does
// not implement sampling.ErrOracle, so wrapping an infallible oracle
// leaves the samplers' resilience path exactly as it was.
type timingOracle struct {
	inner sampling.Oracle
	t     *oracleTimes
}

func (o *timingOracle) Cost(i, j int) float64 {
	sw := obs.NewStopwatch()
	v := o.inner.Cost(i, j)
	o.t.busyNS.Add(int64(sw.Elapsed()))
	o.t.probes.Add(1)
	return v
}

func (o *timingOracle) N() int       { return o.inner.N() }
func (o *timingOracle) K() int       { return o.inner.K() }
func (o *timingOracle) Calls() int64 { return o.inner.Calls() }

// timingBatchOracle forwards sampling.BatchOracle, so the samplers keep
// using the batched (parallel) evaluation path.
type timingBatchOracle struct {
	timingOracle
	batch sampling.BatchOracle
}

func (o *timingBatchOracle) BatchCost(pairs []sampling.Pair, out []float64, parallelism int) {
	sw := obs.NewStopwatch()
	o.batch.BatchCost(pairs, out, parallelism)
	o.t.busyNS.Add(int64(sw.Elapsed()))
	o.t.probes.Add(int64(len(pairs)))
	o.t.batches.Add(1)
	o.t.batchProbes.Add(int64(len(pairs)))
}

// wrapTiming returns in wrapped by a timing oracle reporting into t,
// keeping the batch path when in has one.
func wrapTiming(in sampling.Oracle, t *oracleTimes) sampling.Oracle {
	base := timingOracle{inner: in, t: t}
	if b, ok := in.(sampling.BatchOracle); ok {
		return &timingBatchOracle{timingOracle: base, batch: b}
	}
	return &base
}
