package sampling

import (
	"math"
	"slices"

	"physdes/internal/stats"
)

// initialTemplates returns the template partition for the starting
// stratification of a mode: one stratum of all templates (NoStrat /
// Progressive) or one stratum per non-empty template (Fine / EqualAlloc).
func initialTemplates(members [][]int, mode StratMode) [][]int {
	switch mode {
	case Fine, EqualAlloc:
		var out [][]int
		for t := range members {
			if len(members[t]) > 0 {
				out = append(out, []int{t})
			}
		}
		return out
	default:
		var all []int
		for t := range members {
			if len(members[t]) > 0 {
				all = append(all, t)
			}
		}
		return [][]int{all}
	}
}

// tmplStat summarizes one template inside a stratum for split search:
// population size w, estimated mean cost m and within-template variance v
// of the estimator variable (a configuration's cost for Independent
// Sampling, a cost difference for Delta Sampling).
type tmplStat struct {
	t    int
	w    int
	m, v float64
}

// addWeightedSquare folds w·(m²+v) into k at full precision: m² is split
// into an FMA head and residual tail so its low-order bits — the part
// that must survive the later subtraction of (Σw·m)²/W — enter the
// compensated sum instead of being rounded away up front.
//
//physdes:zeroalloc
func addWeightedSquare(k *stats.Kahan, w, m, v float64) {
	mHi := m * m
	mLo := math.FMA(m, m, -mHi)
	k.AddProduct(w, mHi)
	k.AddProduct(w, mLo)
	k.AddProduct(w, v)
}

// unionS2FromMoments converts the weighted moments of a template set —
// total weight W = Σw, compensated Σw·m and Σw·(m²+v) — into the union's
// S² via the variance decomposition σ² = E[within] + Var(between):
//
//	σ²·W = Σw·(m²+v) − (Σw·m)²/W,   S² = σ²·W/(W−1)
//
// This is the prefix-moment identity of the incremental split search:
// because every term is a plain sum over templates, the moments of any
// mean-ordered prefix (and, by subtraction, suffix) come from prefix
// sums, making each split point O(1) instead of O(T).
//
//physdes:zeroalloc
func unionS2FromMoments(W float64, wm, wsq stats.Kahan) float64 {
	if W <= 1 {
		return 0
	}
	popVarW := stats.KahanCenteredSumSq(wm, wsq, W)
	if popVarW < 0 {
		popVarW = 0
	}
	return popVarW / (W - 1)
}

// setS2 estimates S² of a union of templates from their per-template means
// and within-variances, accumulating the weighted moments with
// Kahan-compensated sums so large means (costs ~1e9) cannot cancel unit
// variances away.
func setS2(ts []tmplStat) float64 {
	var W float64
	var wm, wsq stats.Kahan
	for _, s := range ts {
		w := float64(s.w)
		W += w
		wm.AddProduct(w, s.m)
		addWeightedSquare(&wsq, w, s.m, s.v)
	}
	return unionS2FromMoments(W, wm, wsq)
}

// splitDecision is the outcome of one Algorithm 2 search.
type splitDecision struct {
	stratum int   // index of the stratum to split
	left    []int // template indices of the first child (ordered by mean)
	gain    int   // min_sam − sam[t]: projected sample savings
}

// splitScratch carries every buffer the incremental findBestSplit needs,
// so a sampler's steady-state split search performs zero heap
// allocations. The zero value is ready; buffers grow on demand and are
// retained across rounds. The cur/tstats/tbuf/toffs group is staging
// space for the samplers' maybeSplit input construction.
type splitScratch struct {
	sc       stats.AllocScratch // binary-search probe buffers
	allocOut []int              // current-strata Neyman allocation
	capLeft  []int
	cand     []stats.Stratum // candidate strata (parent replaced by children)
	ordered  []tmplStat      // mean-ordered copy of one stratum's templates
	prefW    []float64       // prefix Σw (exact: integer weights)
	prefWM   []stats.Kahan   // prefix Σw·m
	prefWQ   []stats.Kahan   // prefix Σw·(m²+v)
	prefSize []int           // prefix Σw as exact integers
	bestLeft []int           // template ids of the best split's left child

	cur    []stats.Stratum // maybeSplit staging: live strata mirror
	tstats [][]tmplStat    // maybeSplit staging: per-stratum template stats
	tbuf   []tmplStat      // backing storage for tstats entries
	toffs  [][2]int        // [start,end) of each stratum in tbuf, or {-1,-1}
}

// grow returns s resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified.
//
//physdes:zeroalloc
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) //physdes:allocok grows scratch capacity on first use; the steady state takes the cap branch
	}
	return s[:n]
}

// cmpTmplStat orders templates by mean cost, breaking ties by template
// id — a total order (ids are unique within a stratum), so any
// correct sort yields the same permutation as the naive reference.
//
//physdes:zeroalloc
func cmpTmplStat(a, b tmplStat) int {
	switch {
	case a.m < b.m:
		return -1
	case a.m > b.m:
		return 1
	default:
		return a.t - b.t
	}
}

// findBestSplit implements Algorithm 2 (Section 5.1) incrementally: over
// all strata whose expected allocation is at least 2·n_min and whose
// member templates all have cost estimates, order the templates by
// average cost and evaluate every split point's projected #Samples;
// return the best strict improvement, or ok=false, plus the number of
// split points actually evaluated.
//
// Unlike the naive reference in the tests (which recomputes union moments
// per split, O(T) each), the left child's moments are prefix sums over
// the mean-ordered templates and the right child's are totals minus that
// prefix, so each split point costs O(1) on top of its #Samples binary
// search. Each candidate's structural floor Σ min(n_min, size) is
// maintained in exact integer arithmetic and both seeds the binary
// search's lower bound and powers a provably-lossless skip: #Samples of
// any candidate is at least its floor, so when minSam − floor cannot
// strictly beat the best gain the evaluation is dropped without being
// able to change the decision.
//
// The returned decision's left slice aliases sc and is only valid until
// the next call; callers that retain it must copy (applySplit does).
//
// curStrata mirrors the live strata (sizes and current S² estimates);
// tmplStats[h] lists the per-template statistics of stratum h, or nil when
// the stratum lacks estimates for some member template.
//
//physdes:zeroalloc
func findBestSplit(sc *splitScratch, curStrata []stats.Stratum, tmplStats [][]tmplStat, targetVar float64, nmin int) (splitDecision, int, bool) {
	L := len(curStrata)
	minSam := stats.MinSamplesForVarianceScratch(curStrata, targetVar, nmin, &sc.sc, 0)
	sc.allocOut = grow(sc.allocOut, L)
	sc.capLeft = grow(sc.capLeft, L)
	sc.allocOut = stats.NeymanAllocationInto(sc.allocOut, sc.capLeft, curStrata, minSam, nmin)

	// Structural floor of the current stratification, Σ_h min(n_min, size):
	// candidate floors are derived from it by exchanging one parent term
	// for the two children's, in exact integer arithmetic.
	baseLo := 0
	for _, st := range curStrata {
		baseLo += min(nmin, st.Size)
	}

	sc.cand = grow(sc.cand, L+1)
	evals := 0
	best := splitDecision{stratum: -1}
	for h := range curStrata {
		ts := tmplStats[h]
		if len(ts) < 2 {
			continue
		}
		if sc.allocOut[h] < 2*nmin {
			continue
		}
		// Order the stratum's templates by average cost (Algorithm 2,
		// line 9).
		sc.ordered = grow(sc.ordered, len(ts))
		ordered := sc.ordered
		copy(ordered, ts)
		slices.SortFunc(ordered, cmpTmplStat)

		// Prefix moments over the ordering: prefW/prefWM/prefWQ[i] cover
		// ordered[:i]. The left child of split point s reads entry s
		// directly; the right child is totals (entry T) minus entry s.
		T := len(ordered)
		sc.prefW = grow(sc.prefW, T+1)
		sc.prefWM = grow(sc.prefWM, T+1)
		sc.prefWQ = grow(sc.prefWQ, T+1)
		sc.prefSize = grow(sc.prefSize, T+1)
		sc.prefW[0] = 0
		sc.prefWM[0] = stats.Kahan{}
		sc.prefWQ[0] = stats.Kahan{}
		sc.prefSize[0] = 0
		for i, s := range ordered {
			w := float64(s.w)
			sc.prefW[i+1] = sc.prefW[i] + w
			wm := sc.prefWM[i]
			wm.AddProduct(w, s.m)
			sc.prefWM[i+1] = wm
			wq := sc.prefWQ[i]
			addWeightedSquare(&wq, w, s.m, s.v)
			sc.prefWQ[i+1] = wq
			sc.prefSize[i+1] = sc.prefSize[i] + s.w
		}
		totSize := sc.prefSize[T]

		// Candidate strata array with stratum h replaced by two children;
		// children sit at positions h and len(curStrata).
		copy(sc.cand[:L], curStrata)
		parentFloor := min(nmin, curStrata[h].Size)
		for split := 1; split < T; split++ {
			lSize := sc.prefSize[split]
			rSize := totSize - lSize
			candFloor := baseLo - parentFloor + min(nmin, lSize) + min(nmin, rSize)
			if candLo := max(candFloor, 1); minSam-candLo <= best.gain {
				// #Samples of this candidate is ≥ its structural floor, so
				// its gain cannot strictly exceed the current best: skip.
				continue
			}
			lW := sc.prefW[split]
			rW := sc.prefW[T] - lW
			rWM := sc.prefWM[T]
			rWM.SubKahan(sc.prefWM[split])
			rWQ := sc.prefWQ[T]
			rWQ.SubKahan(sc.prefWQ[split])
			sc.cand[h] = stats.Stratum{Size: lSize, S2: unionS2FromMoments(lW, sc.prefWM[split], sc.prefWQ[split])}
			sc.cand[L] = stats.Stratum{Size: rSize, S2: unionS2FromMoments(rW, rWM, rWQ)}
			sam := stats.MinSamplesForVarianceScratch(sc.cand, targetVar, nmin, &sc.sc, candFloor)
			evals++
			if gain := minSam - sam; gain > best.gain {
				sc.bestLeft = grow(sc.bestLeft, split)
				for i := 0; i < split; i++ {
					sc.bestLeft[i] = ordered[i].t
				}
				best = splitDecision{stratum: h, left: sc.bestLeft[:split], gain: gain}
			}
		}
	}
	if best.stratum < 0 || best.gain <= 0 {
		return splitDecision{}, evals, false
	}
	return best, evals, true
}
