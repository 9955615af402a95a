// Package par provides the bounded worker pool shared by the concurrent
// what-if paths (the sampler's probe fan-out, bound derivation, greedy
// tuner probes). It is deliberately tiny: callers express work as an
// indexed loop, and For fans the indices out over at most `workers`
// goroutines. Determinism is the caller's contract — workers must only
// write results into positional slots; any order-sensitive reduction
// happens after For returns.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Default returns the default worker count: runtime.GOMAXPROCS(0).
func Default() int { return runtime.GOMAXPROCS(0) }

// For runs f(i) for every i in [0, n) using up to `workers` goroutines.
// Indices are claimed from a shared atomic counter, so workers stay busy
// regardless of per-item skew. With workers <= 1 (or n <= 1) the loop runs
// inline on the calling goroutine in index order. For returns after every
// f has returned. A panic in any f is re-raised on the calling goroutine
// after the pool drains, exactly as if the loop had run inline.
func For(n, workers int, f func(i int)) {
	//physdes:detachedctx compatibility wrapper for pre-cancellation callers; ForCtx is the cancellable path
	ForCtx(context.Background(), n, workers, f) //physdes:errok Background never cancels and ctx.Err is the only error source, so the result is always nil
}

// ForCtx is For with cancellation: once ctx is done, no further index is
// claimed (indices already claimed run to completion — f is not
// interrupted mid-call) and ForCtx returns ctx.Err(). A nil return means
// ctx was live throughout and every index ran; a non-nil return means the
// loop may have been cut short. Like For, a panicking f is re-raised on the caller
// after every in-flight f has returned, so the pool never crashes the
// process from a worker goroutine and never leaks goroutines.
func ForCtx(ctx context.Context, n, workers int, f func(i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			f(i)
		}
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicVal any
		panicMu  sync.Mutex
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// A panicking f must not crash the process from inside the
			// pool: capture the first panic value and re-raise it on the
			// caller once every worker has drained.
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if !panicked.Load() {
						panicked.Store(true)
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				if panicked.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	return ctx.Err()
}
