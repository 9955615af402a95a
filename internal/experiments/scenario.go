// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) against the simulated substrate:
//
//	Table 1  — σ²_max approximation overhead for N=100K at ρ ∈ {10, 1, 0.1}
//	Figure 1 — Monte-Carlo Pr(CS), TPC-D, easy pair (≈7% gap, views vs
//	           index-only), four sampling schemes
//	Figure 2 — progressive vs fine stratification on the Figure 1 setup
//	Figure 3 — hard TPC-D pair (≤2% gap, both index-only, shared structures)
//	Figure 4 — CRM pair (<1% gap, little structure overlap)
//	Table 2  — TPC-D multi-configuration selection, k ∈ {50, 100, 500}
//	Table 3  — CRM multi-configuration selection
//	§7.3     — comparison to workload compression ([20] and [5])
//	§6       — CLT sample-size requirements (Equation 9) for the 13K and
//	           131K TPC-D workloads
//
// Absolute numbers depend on the simulated optimizer; the experiments
// reproduce the paper's *shapes*: who wins, by what rough factor, and where
// the crossovers fall. Every experiment accepts a Params scale so the quick
// mode finishes in seconds while the paper-scale mode matches the original
// workload sizes and 5000-run Monte-Carlo protocol.
package experiments

import (
	"fmt"
	"sort"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/tuner"
	"physdes/internal/workload"
)

// Params scales the experiments. Zero values select quick mode.
type Params struct {
	// TPCDQueries is the TPC-D workload size (paper: 13000).
	TPCDQueries int
	// CRMQueries is the CRM trace size (paper: 6000).
	CRMQueries int
	// Repeats is the Monte-Carlo repetition count (paper: 5000).
	Repeats int
	// Ks are the multi-configuration set sizes (paper: 50, 100, 500).
	Ks []int
	// SigmaN is the interval count for Table 1 (paper: 100000).
	SigmaN int
	// Seed drives all randomness.
	Seed uint64
}

// Quick returns the fast defaults used by tests and `benchrunner -quick`.
func Quick() Params {
	return Params{
		TPCDQueries: 2600,
		CRMQueries:  1500,
		Repeats:     200,
		Ks:          []int{10, 25, 50},
		SigmaN:      20_000,
		Seed:        1,
	}
}

// PaperScale returns the paper's experiment sizes.
func PaperScale() Params {
	return Params{
		TPCDQueries: 13_000,
		CRMQueries:  6_000,
		Repeats:     5_000,
		Ks:          []int{50, 100, 500},
		SigmaN:      100_000,
		Seed:        1,
	}
}

func (p Params) withDefaults() Params {
	q := Quick()
	if p.TPCDQueries == 0 {
		p.TPCDQueries = q.TPCDQueries
	}
	if p.CRMQueries == 0 {
		p.CRMQueries = q.CRMQueries
	}
	if p.Repeats == 0 {
		p.Repeats = q.Repeats
	}
	if len(p.Ks) == 0 {
		p.Ks = q.Ks
	}
	if p.SigmaN == 0 {
		p.SigmaN = q.SigmaN
	}
	if p.Seed == 0 {
		p.Seed = q.Seed
	}
	return p
}

// Scenario bundles a database, workload and optimizer.
type Scenario struct {
	Name string
	Cat  *catalog.Catalog
	W    *workload.Workload
	Opt  *optimizer.Optimizer
	// Candidates are the enumerated physical design structures.
	Candidates []physical.Structure
}

// TPCDScenario builds the synthetic TPC-D scenario (Section 7's 1GB
// Zipf-skewed database with a QGEN workload).
func TPCDScenario(p Params) (*Scenario, error) {
	p = p.withDefaults()
	cat := catalog.TPCD(1)
	w, err := workload.GenTPCD(cat, p.TPCDQueries, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: tpcd workload: %w", err)
	}
	s := &Scenario{Name: "TPC-D", Cat: cat, W: w, Opt: optimizer.New(cat)}
	s.Candidates = physical.EnumerateCandidates(cat, w.Analyses(),
		physical.CandidateOptions{Covering: true, Views: true})
	return s, nil
}

// CRMScenario builds the synthetic CRM scenario (Section 7's real-life
// database stand-in: 500+ tables, mixed-DML trace, >120 templates).
func CRMScenario(p Params) (*Scenario, error) {
	p = p.withDefaults()
	cat := catalog.CRM()
	w, err := workload.GenCRM(cat, p.CRMQueries, p.Seed+100)
	if err != nil {
		return nil, fmt.Errorf("experiments: crm workload: %w", err)
	}
	s := &Scenario{Name: "CRM", Cat: cat, W: w, Opt: optimizer.New(cat)}
	s.Candidates = physical.EnumerateCandidates(cat, w.Analyses(),
		physical.CandidateOptions{Covering: true, Views: false})
	return s, nil
}

// Pair is a two-configuration comparison setup with its exact ground truth.
type Pair struct {
	Configs []*physical.Configuration
	Matrix  *workload.CostMatrix
	// Best is the index of the exactly better configuration.
	Best int
	// Gap is the relative cost difference |c1−c0| / min.
	Gap float64
	// Overlap is the Jaccard structure overlap.
	Overlap float64
}

func newPair(s *Scenario, a, b *physical.Configuration) *Pair {
	m := workload.ComputeCostMatrix(s.Opt, s.W, []*physical.Configuration{a, b})
	best, bestCost := m.BestConfig()
	other := m.TotalCost(1 - best)
	return &Pair{
		Configs: []*physical.Configuration{a, b},
		Matrix:  m,
		Best:    best,
		Gap:     (other - bestCost) / bestCost,
		Overlap: physical.Overlap(a, b),
	}
}

// EasyPair reproduces the Figure 1 setup: a configuration containing
// materialized views versus an index-only configuration, with a significant
// (several percent) cost difference and differing structure sets. Both are
// greedily tuned so the comparison is between plausible tool candidates.
func EasyPair(s *Scenario, seed uint64) *Pair {
	idxOnly := physical.IndexesOnly(s.Candidates)
	sub := subsample(s.W, 400, seed)
	idxCfg := tuner.Greedy(s.Opt, s.Cat, sub, nil, idxOnly,
		tuner.Options{MaxStructures: 8}).Config

	// C1 augments the index-only configuration with one materialized view,
	// so C1 is better on (nearly) every query — the paper's "significant
	// difference in cost" with a clean direction — and the view whose
	// benefit lands closest to the paper's ≈7% gap wins.
	const gapLo, gapHi = 0.03, 0.12
	var best, fallback *Pair
	for _, cand := range s.Candidates {
		v, ok := cand.(*physical.View)
		if !ok {
			continue
		}
		c1 := idxCfg.With("C1-views", v)
		p := newPair(s, renamed(c1, "C1-views"), renamed(idxCfg, "C2-index-only"))
		if p.Gap <= 0 {
			continue
		}
		if p.Gap >= gapLo && p.Gap <= gapHi {
			if best == nil || absF(p.Gap-0.07) < absF(best.Gap-0.07) {
				best = p
			}
		}
		if fallback == nil || absF(p.Gap-0.07) < absF(fallback.Gap-0.07) {
			fallback = p
		}
	}
	if best == nil {
		best = fallback
	}
	if best == nil {
		viewCfg := tuner.Greedy(s.Opt, s.Cat, sub, nil, s.Candidates,
			tuner.Options{MaxStructures: 8}).Config
		best = newPair(s, renamed(viewCfg, "C1-views"), renamed(idxCfg, "C2-index-only"))
	}
	return best
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// HardPair reproduces the Figure 3 setup: two index-only configurations
// sharing most structures with a small (paper: ≤2%) cost gap. Candidate
// variants swap one structure of a tuned configuration for an unused
// candidate; the variant with the smallest nonzero full-workload gap wins.
func HardPair(s *Scenario, seed uint64) *Pair {
	idxOnly := physical.IndexesOnly(s.Candidates)
	sub := subsample(s.W, 400, seed)
	res := tuner.Greedy(s.Opt, s.Cat, sub, nil, idxOnly,
		tuner.Options{MaxStructures: 8, MinGain: 1e-6})
	chosen := res.Chosen
	if len(chosen) < 3 {
		base := res.Config
		return newPair(s, renamed(base, "C1"), physical.NewConfiguration("C2"))
	}

	// A hard comparison needs per-query cost differences of both signs —
	// each configuration must win somewhere, so a sampled estimate can
	// genuinely point the wrong way. Swapping the i-th greedy pick for the
	// (i+1)-th produces exactly that: C2 lacks one useful structure but
	// gains the next-best one. Search the swap positions for the smallest
	// positive gap with mixed-sign differences.
	// Prefer the paper's "hard" band (0.5%–2% gap) among mixed-sign swaps;
	// fall back to the smallest mixed-sign gap, then any positive gap.
	const gapLo, gapHi = 0.005, 0.02
	var best, mixed, fallback *Pair
	for i := 1; i < len(chosen)-1; i++ {
		c1 := physical.NewConfiguration("C1-index-only", chosen[:i+1]...)
		c2Structs := append(append([]physical.Structure(nil), chosen[:i]...), chosen[i+1])
		c2 := physical.NewConfiguration("C2-index-only", c2Structs...)
		p := newPair(s, c1, c2)
		if p.Gap <= 0 {
			continue
		}
		if mixedSignFraction(p) >= 0.02 {
			if p.Gap >= gapLo && p.Gap <= gapHi {
				if best == nil || p.Gap < best.Gap {
					best = p
				}
			}
			if mixed == nil || p.Gap < mixed.Gap {
				mixed = p
			}
		}
		if fallback == nil || p.Gap < fallback.Gap {
			fallback = p
		}
	}
	if best == nil {
		best = mixed
	}
	if best == nil {
		best = fallback
	}
	if best == nil {
		base := res.Config
		structs := base.Structures()
		best = newPair(s, renamed(base, "C1-index-only"),
			base.Without("C2-index-only", structs[len(structs)-1].ID()))
	}
	return best
}

// mixedSignFraction returns the cost mass (relative to total absolute
// difference) on the minority side of the pair's per-query differences.
func mixedSignFraction(p *Pair) float64 {
	var pos, neg float64
	for _, row := range p.Matrix.Costs {
		d := row[0] - row[1]
		if d > 0 {
			pos += d
		} else {
			neg -= d
		}
	}
	total := pos + neg
	if total == 0 {
		return 0
	}
	minority := pos
	if neg < pos {
		minority = neg
	}
	return minority / total
}

// DisjointPair reproduces the Figure 4 setup: two configurations of nearly
// identical cost with little overlap in their physical design structures —
// built by tuning on the two halves of the candidate set.
func DisjointPair(s *Scenario, seed uint64) *Pair {
	// Tune on different sub-workloads: each configuration is a plausible
	// recommendation of near-equal full-workload quality, but the differing
	// tuning samples pull in different structures. Among several sample
	// pairs, keep the pair with the smallest positive gap subject to low
	// structure overlap (the paper's pair: <1% gap, little overlap).
	var best, fallback *Pair
	for attempt := uint64(0); attempt < 4; attempt++ {
		subA := subsample(s.W, 300, seed+attempt*2)
		subB := subsample(s.W, 300, seed+attempt*2+1)
		c1 := tuner.Greedy(s.Opt, s.Cat, subA, nil, s.Candidates,
			tuner.Options{MaxStructures: 5}).Config
		c2 := tuner.Greedy(s.Opt, s.Cat, subB, nil, s.Candidates,
			tuner.Options{MaxStructures: 5}).Config
		if c1.Fingerprint() == c2.Fingerprint() {
			continue
		}
		p := newPair(s, renamed(c1, "C1-sample-A"), renamed(c2, "C2-sample-B"))
		if p.Gap <= 0 {
			continue
		}
		if p.Overlap <= 0.5 {
			if best == nil || p.Gap < best.Gap {
				best = p
			}
		}
		if fallback == nil || p.Gap < fallback.Gap {
			fallback = p
		}
	}
	if best == nil {
		best = fallback
	}
	if best == nil {
		c1 := tuner.Greedy(s.Opt, s.Cat, subsample(s.W, 300, seed), nil, s.Candidates,
			tuner.Options{MaxStructures: 5}).Config
		best = newPair(s, renamed(c1, "C1"), physical.NewConfiguration("C2"))
	}
	return best
}

func renamed(c *physical.Configuration, name string) *physical.Configuration {
	return physical.NewConfiguration(name, c.Structures()...)
}

// subsample returns a small uniform sub-workload used only to make pair
// construction (tuning) cheap; the experiments themselves always run on the
// full workload.
func subsample(w *workload.Workload, n int, seed uint64) *workload.Workload {
	if n >= w.Size() {
		return w
	}
	perm := stats.NewRNG(seed).Perm(w.Size())
	ids := append([]int(nil), perm[:n]...)
	sort.Ints(ids)
	return w.Subset(ids)
}

// Space builds a k-configuration space for the Table 2/3 experiments and
// its exact cost matrix. Mirroring how a tuning tool enumerates (Section
// 7.2's candidates were "collected from a commercial physical design
// tool"), the space consists of perturbations around a tuned configuration:
// each candidate drops a few of the tuned structures and adds a few unused
// ones, so the obviously-good structures are shared by most candidates and
// the differences are the realistic near-optimal trade-offs.
func Space(s *Scenario, k int, seed uint64) ([]*physical.Configuration, *workload.CostMatrix) {
	configs := buildSpace(s, k, seed)
	m := workload.ComputeCostMatrix(s.Opt, s.W, configs)
	return configs, m
}

// buildSpace is Space without the exact cost matrix: the k perturbed
// configurations alone, for experiments that meter the what-if calls
// themselves (the matrix would spend N·k of them up front).
func buildSpace(s *Scenario, k int, seed uint64) []*physical.Configuration {
	rng := stats.NewRNG(seed)
	sub := subsample(s.W, 400, seed+5)
	base := tuner.Greedy(s.Opt, s.Cat, sub, nil, s.Candidates,
		tuner.Options{MaxStructures: 8}).Config
	baseStructs := base.Structures()
	var unused []physical.Structure
	for _, c := range s.Candidates {
		if !base.Has(c.ID()) {
			unused = append(unused, c)
		}
	}

	seen := make(map[string]bool)
	var configs []*physical.Configuration
	add := func(cfg *physical.Configuration) {
		if fp := cfg.Fingerprint(); !seen[fp] {
			seen[fp] = true
			configs = append(configs, physical.NewConfiguration(
				fmt.Sprintf("C%d", len(configs)+1), cfg.Structures()...))
		}
	}
	add(base)
	for attempts := 0; len(configs) < k && attempts < k*60; attempts++ {
		kept := make([]physical.Structure, 0, len(baseStructs)+4)
		drops := rng.Intn(minInt2(4, len(baseStructs)) + 1)
		perm := rng.Perm(len(baseStructs))
		dropSet := make(map[int]bool, drops)
		for _, i := range perm[:drops] {
			dropSet[i] = true
		}
		for i, st := range baseStructs {
			if !dropSet[i] {
				kept = append(kept, st)
			}
		}
		if len(unused) > 0 {
			adds := rng.Intn(minInt2(4, len(unused)) + 1)
			aperm := rng.Perm(len(unused))
			for _, i := range aperm[:adds] {
				kept = append(kept, unused[i])
			}
		}
		if len(kept) == 0 {
			continue
		}
		add(physical.NewConfiguration("cand", kept...))
	}
	return configs
}

func minInt2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
