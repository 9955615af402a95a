package stats

import "math"

// Stratum describes one stratum of a stratified sampling design: its
// population size and the (estimated) S² of the variable inside it.
type Stratum struct {
	// Size is |WL_h|, the number of population elements in the stratum.
	Size int
	// S2 is S²_h = σ²_h · |WL_h|/(|WL_h|−1), the paper's variance form.
	S2 float64
}

// StratifiedVariance evaluates Equation 5 of the paper:
//
//	Var(X) = Σ_h |WL_h|² · S²_h/n_h · (1 − n_h/|WL_h|)
//
// for the allocation alloc (alloc[h] = n_h). Strata with n_h ≤ 0 contribute
// +Inf unless their size is also 0. An allocation covering a whole stratum
// contributes 0 for it (the FPC vanishes).
//
//physdes:zeroalloc
func StratifiedVariance(strata []Stratum, alloc []int) float64 {
	if len(strata) != len(alloc) {
		panic("stats: allocation length mismatch")
	}
	var v float64
	for h, st := range strata {
		if st.Size == 0 {
			continue
		}
		n := alloc[h]
		if n <= 0 {
			return math.Inf(1)
		}
		if n >= st.Size {
			continue
		}
		v += StratumVar(float64(st.Size), st.S2, float64(n), float64(n))
	}
	return v
}

// StratumVar is one stratum's term of Equation 5, W²·s²/n·(1 − fresh/W):
// the variance s² over n samples of a stratum of size W, with the
// finite-population correction on the fresh ones. StratifiedVariance
// passes fresh = n; the sampler's estimator pools prior observations
// into n that the correction does not count.
//
//physdes:zeroalloc
func StratumVar(W, s2, n, fresh float64) float64 {
	return W * W * s2 / n * (1 - fresh/W)
}

// NeymanAllocationInto distributes a total sample size n across strata
// proportionally to |WL_h|·S_h (Neyman's optimum allocation), clamping
// each stratum to its population size and to a per-stratum minimum. The
// allocation always sums to at least min(n, Σ sizes); leftover samples
// from clamped strata are redistributed among the unclamped ones.
//
// dst receives the allocation and capLeft is working space for the
// remaining per-stratum capacity. Both are used from index 0 and
// fully overwritten; when either is too small a fresh slice is
// allocated, so pre-sized buffers make the call allocation-free (the
// property the split-search binary probes rely on). The (possibly
// grown) allocation slice is returned.
//
//physdes:zeroalloc
func NeymanAllocationInto(dst, capLeft []int, strata []Stratum, n, perStratumMin int) []int {
	L := len(strata)
	dst = growInts(dst, L)
	if L == 0 {
		return dst
	}
	capLeft = growInts(capLeft, L)

	// First pass: reserve the minimum everywhere it fits.
	remaining := n
	for h, st := range strata {
		m := perStratumMin
		if m > st.Size {
			m = st.Size
		}
		dst[h] = m
		remaining -= m
		capLeft[h] = st.Size - m
	}
	if remaining <= 0 {
		return dst
	}

	// Iteratively hand out the remainder proportionally to W_h·S_h among
	// strata that still have capacity. Clamping one stratum changes the
	// proportions, hence the loop; it terminates because each iteration
	// either exhausts `remaining` or permanently clamps a stratum.
	for remaining > 0 {
		var totalWeight float64
		for h, st := range strata {
			if capLeft[h] > 0 {
				totalWeight += float64(st.Size) * math.Sqrt(math.Max(st.S2, 0))
			}
		}
		if totalWeight == 0 {
			// All remaining strata have zero variance estimates; with every
			// weight equal the weight-ordered handout degenerates to a
			// uniform spread over the strata with capacity.
			handOutByWeight(strata, dst, capLeft, &remaining)
			break
		}
		clamped := false
		distributed := 0
		for h, st := range strata {
			if capLeft[h] <= 0 {
				continue
			}
			w := float64(st.Size) * math.Sqrt(math.Max(st.S2, 0)) / totalWeight
			give := int(math.Floor(w * float64(remaining)))
			if give > capLeft[h] {
				give = capLeft[h]
				clamped = true
			}
			dst[h] += give
			capLeft[h] -= give
			distributed += give
		}
		remaining -= distributed
		if distributed == 0 && !clamped {
			// Rounding stalled: every proportional share floored to zero.
			// Hand the leftovers out one-by-one to the highest-weight
			// strata first — the strata Neyman's rule itself would top up.
			handOutByWeight(strata, dst, capLeft, &remaining)
			break
		}
	}
	return dst
}

// handOutByWeight gives the remaining samples out one at a time in
// descending W_h·S_h order (ties broken by lower index), restarting the
// order each pass until the remainder is placed or capacity runs out.
// It scans rather than sorts so the probe path stays allocation-free;
// the remainder at a rounding stall is always smaller than the number
// of positive-weight strata, so the scans are cheap.
//
//physdes:zeroalloc
func handOutByWeight(strata []Stratum, alloc, capLeft []int, remaining *int) {
	for *remaining > 0 {
		prevW := math.Inf(1)
		prevIdx := -1
		progress := false
		for *remaining > 0 {
			// Next stratum with capacity in (weight desc, index asc) order
			// strictly after the previously served (prevW, prevIdx).
			bh := -1
			var bw float64
			for h, st := range strata {
				if capLeft[h] <= 0 {
					continue
				}
				w := float64(st.Size) * math.Sqrt(math.Max(st.S2, 0))
				if w > prevW || (w == prevW && h <= prevIdx) {
					continue // served earlier in this pass
				}
				if bh < 0 || w > bw {
					bh, bw = h, w
				}
			}
			if bh < 0 {
				break // pass exhausted
			}
			alloc[bh]++
			capLeft[bh]--
			*remaining--
			prevW, prevIdx = bw, bh
			progress = true
		}
		if !progress {
			return // every stratum at capacity
		}
	}
}

// growInts returns s resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified.
//
//physdes:zeroalloc
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n) //physdes:allocok grows scratch capacity on first use; the steady state takes the cap branch
	}
	return s[:n]
}

// AllocScratch holds the working buffers MinSamplesForVarianceScratch
// threads through its NeymanAllocationInto probes, so the O(log N)
// binary-search evaluations reuse two slices instead of allocating two
// per probe. The zero value is ready to use; buffers grow on first use
// and are retained across calls.
type AllocScratch struct {
	alloc   []int
	capLeft []int
}

// MinSamplesForVarianceScratch returns the smallest total sample size n
// such that a Neyman allocation of n over the strata (respecting
// perStratumMin) achieves StratifiedVariance ≤ targetVar, assuming the
// strata S² values stay constant. This is the #Samples(Cᵢ, ST, NT) oracle
// of Section 5.1; as the paper notes (footnote 3), ignoring the finite
// population correction it can be computed with a binary search over n
// combined with Neyman allocation in O(L·log₂(N)) operations. The search
// is bounded by the total population size; if even sampling everything
// cannot reach the target (targetVar < 0), the total population size is
// returned.
//
// sc holds the probes' buffers across calls. loHint, when positive, must
// equal the structural floor Σ_h min(perStratumMin, Size_h) — callers
// that maintain the floor incrementally (the split-search sweep) pass it
// to skip the O(L) recomputation; loHint ≤ 0 derives the floor
// internally. The probe sequence is the same either way.
//
//physdes:zeroalloc
func MinSamplesForVarianceScratch(strata []Stratum, targetVar float64, perStratumMin int, sc *AllocScratch, loHint int) int {
	total := 0
	for _, st := range strata {
		total += st.Size
	}
	if total == 0 {
		return 0
	}
	lo := loHint
	if lo <= 0 {
		lo = 0
		for _, st := range strata {
			m := perStratumMin
			if m > st.Size {
				m = st.Size
			}
			lo += m
		}
	}
	if lo < 1 {
		lo = 1
	}
	L := len(strata)
	sc.alloc = growInts(sc.alloc, L)
	sc.capLeft = growInts(sc.capLeft, L)
	if v := StratifiedVariance(strata, NeymanAllocationInto(sc.alloc, sc.capLeft, strata, lo, perStratumMin)); v <= targetVar {
		return lo
	}
	hi := total
	if v := StratifiedVariance(strata, NeymanAllocationInto(sc.alloc, sc.capLeft, strata, hi, perStratumMin)); v > targetVar {
		return total
	}
	for lo < hi {
		mid := (lo + hi) / 2
		v := StratifiedVariance(strata, NeymanAllocationInto(sc.alloc, sc.capLeft, strata, mid, perStratumMin))
		if v <= targetVar {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
