package optimizer

import (
	"context"
	"errors"
	"testing"
)

func batchReqs(t *testing.T, n int) []Request {
	t.Helper()
	a := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 1500")
	cfg := emptyCfg()
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Analysis: a, Config: cfg}
	}
	return reqs
}

func TestBatchCtxMatchesBatch(t *testing.T) {
	o := New(testCat)
	reqs := batchReqs(t, 40)
	want := o.Batch(reqs, 1)
	for _, p := range []int{1, 4, 8} {
		got := make([]float64, len(reqs))
		if err := o.BatchIntoCtx(context.Background(), reqs, got, p); err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: out[%d] = %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestBatchIntoCtxCancelled(t *testing.T) {
	o := New(testCat)
	reqs := batchReqs(t, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{1, 8} {
		out := make([]float64, len(reqs))
		err := o.BatchIntoCtx(ctx, reqs, out, p)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want context.Canceled", p, err)
		}
	}
}

// TestCachedBatchIntoCtxCancelled pins the atom store's batch path to the
// same cancellation contract: a cancelled context returns its error and
// charges no inner call.
func TestCachedBatchIntoCtxCancelled(t *testing.T) {
	c := NewAtomicCache(New(testCat), 0)
	reqs := batchReqs(t, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{1, 8} {
		out := make([]float64, len(reqs))
		if err := c.BatchIntoCtx(ctx, reqs, out, p); !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want context.Canceled", p, err)
		}
	}
	if calls := c.Inner().Calls(); calls != 0 {
		t.Errorf("cancelled batches charged %d inner calls, want 0", calls)
	}
}
