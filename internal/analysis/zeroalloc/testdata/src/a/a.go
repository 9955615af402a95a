package a

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// kahan mimics the stats compensated accumulator: a value struct used
// by value never touches the heap.
type kahan struct{ sum, c float64 }

// cmp is a named comparison function; passing it to slices.SortFunc
// allocates nothing, unlike a capturing closure.
func cmp(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// clean is the shape of the PR-4 hot path: scratch reuse, in-place
// sort with a named comparator, value-struct accumulation, math calls.
//
//physdes:zeroalloc
func clean(xs, scratch []float64) float64 {
	copy(scratch, xs)
	slices.SortFunc(scratch, cmp)
	k := kahan{}
	for _, x := range scratch {
		k.sum += math.Abs(x)
	}
	return k.sum
}

//physdes:zeroalloc
func makesSlice(n int) []float64 {
	return make([]float64, n) // want "make"
}

//physdes:zeroalloc
func grows(xs []float64, x float64) []float64 {
	return append(xs, x) // want "append may grow its backing array"
}

//physdes:zeroalloc
func escapingLit() *kahan {
	return &kahan{} // want "escapes to the heap"
}

//physdes:zeroalloc
func sliceLit() int {
	xs := []int{1, 2, 3} // want "escapes to the heap"
	return xs[0]
}

//physdes:zeroalloc
func escapingClosure(xs []float64) func() {
	f := func() { xs[0] = 0 } // want "closure escapes"
	return f
}

//physdes:zeroalloc
func concat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

//physdes:zeroalloc
func converts(s string) int {
	bs := []byte(s) // want "copies its operand"
	return len(bs)
}

// allocator is an ordinary function; the call-graph summary records
// its make so annotated callers are charged for it.
func allocator(n int) []int { return make([]int, n) }

//physdes:zeroalloc
func callsAllocator(n int) int {
	xs := allocator(n) // want "calls allocator, which allocates"
	return len(xs)
}

// probe is the shape of the what-if probe: a counter bump, a read under a
// shard lock and number formatting into a stack buffer are all on the
// allowlist.
type probe struct {
	calls atomic.Int64
	mu    sync.RWMutex
	memo  map[float64]int
}

//physdes:zeroalloc
func (p *probe) cost(x float64) int {
	p.calls.Add(1)
	p.mu.RLock()
	n := p.memo[x]
	p.mu.RUnlock()
	var buf [32]byte
	return n + len(strconv.AppendFloat(buf[:0], x, 'g', -1, 64))
}

//physdes:zeroalloc
func callsStdlib(x float64) int {
	s := fmt.Sprint(x) // want "outside the module and not on the no-alloc allowlist"
	return len(s)
}

//physdes:zeroalloc
func dynamic(f func() int) int {
	return f() // want "dynamic call f cannot be proven allocation-free"
}

// withColdPath grows its buffer on first use only: the sanctioned,
// justified suppression.
//
//physdes:zeroalloc
func withColdPath(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n) //physdes:allocok first-use growth; steady state takes the cap branch
	}
	return buf[:n]
}

//physdes:zeroalloc
func missingReason(n int) []int {
	//physdes:allocok
	return make([]int, n) // want "needs a justification"
}

// inner and outer show the contract composing: an annotated callee is
// trusted (and separately checked at its own declaration).
//
//physdes:zeroalloc
func inner(x float64) float64 { return math.Sqrt(x) }

//physdes:zeroalloc
func outer(x float64) float64 { return inner(x) + 1 }

// unannotated functions may allocate freely: no findings.
func freeToAlloc(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprint(i))
	}
	return out
}
