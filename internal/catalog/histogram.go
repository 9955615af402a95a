package catalog

import (
	"math"
	"sync"

	"physdes/internal/stats"
)

// Histogram is an equi-depth histogram over a column's value domain
// [1, Distinct], built from the column's Zipf(Skew) frequency law. The
// optimizer estimates selectivities from the histogram rather than from the
// exact law, mirroring the estimation error a real optimizer incurs.
type Histogram struct {
	// bounds[i] is the inclusive upper value of bucket i; bucket i covers
	// (bounds[i-1], bounds[i]] with bounds[-1] = 0.
	bounds []int
	// fracs[i] is the fraction of rows in bucket i; Σ fracs = 1.
	fracs []float64
	// distinct[i] is the number of distinct values in bucket i.
	distinct []int
	n        int // domain size
}

// DefaultBuckets is the histogram resolution used when building column
// histograms (SQL Server uses up to 200 steps; we match that scale).
const DefaultBuckets = 200

// BuildHistogram constructs an equi-depth histogram with at most buckets
// buckets for a domain of n values whose frequency of value v is pmf(v).
func BuildHistogram(n, buckets int, pmf func(v int) float64) *Histogram {
	if buckets < 1 {
		buckets = 1
	}
	if buckets > n {
		buckets = n
	}
	h := &Histogram{n: n}
	target := 1.0 / float64(buckets)
	var acc float64
	lastBound := 0
	for v := 1; v <= n; v++ {
		acc += pmf(v)
		if acc >= target && v > lastBound || v == n {
			h.bounds = append(h.bounds, v)
			h.fracs = append(h.fracs, acc)
			h.distinct = append(h.distinct, v-lastBound)
			lastBound = v
			acc = 0
		}
	}
	// Normalize (pmf may not sum exactly to 1).
	var total float64
	for _, f := range h.fracs {
		total += f
	}
	if total > 0 {
		for i := range h.fracs {
			h.fracs[i] /= total
		}
	}
	return h
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.bounds) }

// bucketOf returns the index of the bucket containing value v (1-based
// domain), clamping out-of-domain values.
func (h *Histogram) bucketOf(v int) int {
	if v < 1 {
		return 0
	}
	lo, hi := 0, len(h.bounds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// EqSelectivity estimates the fraction of rows with value = v, assuming
// uniformity within the bucket (the standard histogram assumption).
func (h *Histogram) EqSelectivity(v float64) float64 {
	iv := int(math.Round(v))
	if iv < 1 || iv > h.n {
		return 0
	}
	b := h.bucketOf(iv)
	d := h.distinct[b]
	if d < 1 {
		d = 1
	}
	return h.fracs[b] / float64(d)
}

// RangeSelectivity estimates the fraction of rows with lo ≤ value ≤ hi.
// Either bound may be ±Inf for a half-open range. Partial buckets are
// interpolated linearly. Only the buckets overlapping the range are
// visited: the walk starts at the bucket holding the lower bound and
// stops at the first bucket past the upper one.
func (h *Histogram) RangeSelectivity(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	l := math.Max(1, math.Ceil(lo))
	u := math.Min(float64(h.n), math.Floor(hi))
	if u < l {
		return 0
	}
	first := 0
	if l > 1 {
		first = h.bucketOf(int(l))
	}
	prevBound := 0
	if first > 0 {
		prevBound = h.bounds[first-1]
	}
	var sel float64
	for b := first; b < len(h.bounds); b++ {
		bl, bu := float64(prevBound+1), float64(h.bounds[b])
		prevBound = h.bounds[b]
		if bl > u {
			break
		}
		ol := math.Max(bl, l)
		ou := math.Min(bu, u)
		width := bu - bl + 1
		sel += h.fracs[b] * (ou - ol + 1) / width
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// histCache caches one histogram per (distinct, skew) pair: all columns
// with identical statistics share the same histogram, which keeps the
// 500-table CRM catalog cheap to cost against.
var histCache sync.Map // key histKey → *Histogram

type histKey struct {
	n    int
	skew float64
}

// ColumnHistogram returns the (cached) histogram of a column's value
// frequency distribution.
func ColumnHistogram(c Column) *Histogram {
	n := c.Distinct
	if n < 1 {
		n = 1
	}
	key := histKey{n: n, skew: c.Skew}
	if h, ok := histCache.Load(key); ok {
		return h.(*Histogram)
	}
	return buildColumnHistogram(key) //physdes:allocok built on first sight of a (distinct, skew) pair, then served from histCache
}

func buildColumnHistogram(key histKey) *Histogram {
	n := key.n
	var h *Histogram
	if key.skew == 0 {
		// Uniform: closed-form buckets, no ZipfGen needed.
		h = BuildHistogram(n, DefaultBuckets, func(int) float64 { return 1 / float64(n) })
	} else {
		z := stats.NewZipfGen(n, key.skew)
		h = BuildHistogram(n, DefaultBuckets, z.PMF)
	}
	actual, _ := histCache.LoadOrStore(key, h)
	return actual.(*Histogram)
}
