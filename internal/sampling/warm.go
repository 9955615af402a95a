package sampling

import (
	"encoding/json"
	"math"
	"slices"

	"physdes/internal/stats"
)

// stratStateVersion is the serialization version of StratState. Snapshots
// with a different version are ignored (the warm path degrades to cold).
const stratStateVersion = 1

// Prior-consistency check thresholds: once a warm stratum has accumulated
// priorCheckMinFresh fresh samples, its prior means are z-tested against
// the fresh evidence every round, and the whole stratum prior is dropped
// when any configuration's means disagree beyond priorDriftSigma standard
// errors. The parameter-signature test (paramsChanged) catches drift that
// moves a template's literals; this check catches drift the literals hide
// — cost distributions that moved while the parameters look unchanged.
// 3σ keeps the per-round false-drop probability small (~3e-3 per test),
// so clean re-runs keep almost all of their prior savings, while drift on
// the difference scale — orders of magnitude tighter than the cost scale
// under correlation — is caught within a few fresh samples.
const (
	priorCheckMinFresh = 8
	priorDriftSigma    = 3.0
)

// priorWeightCap bounds a stratum prior's effective sample count at this
// multiple of the stratum's fresh count (a power prior whose trust grows
// with corroborating fresh evidence). An uncapped prior — often 10× the
// reduced pilot — would pin pooled means to the snapshot until the
// consistency check fires, and amplify any undetected sub-threshold drift
// at decision time; the cap bounds that bias at a bounded multiple of the
// fresh standard error while still tripling the pooled sample size once
// fresh draws corroborate.
const priorWeightCap = 2

// minTemplateObs is the number of sampled observations a template needs
// before its average cost participates in split decisions, and before a
// warm snapshot's moments for it count as a prior.
const minTemplateObs = 2

// warmPilot caps the per-stratum warm pilot. Strata reused from a warm
// snapshot share one NMin-sized pilot budget (see warmPilotAlloc); fresh
// strata keep the full NMin.
const warmPilot = 10

// warmPilotAlloc spreads one cold pilot's worth of fresh samples (nmin)
// across the reused strata proportionally to their size, clamping each
// share to [2, warmPilot]. A warm resume re-pilots every reused stratum,
// so charging warmPilot to each would make a deeply split snapshot cost
// more than the cold single-stratum pilot on workloads cold certifies at
// the floor — the budget keeps the warm pilot bill at (roughly) one NMin
// regardless of how far the previous run's stratification went.
func warmPilotAlloc(sizes []int, nmin int) []int {
	total := 0
	for _, sz := range sizes {
		total += sz
	}
	out := make([]int, len(sizes))
	for i, sz := range sizes {
		p := warmPilot
		if total > 0 {
			p = (nmin*sz + total - 1) / total // ceil of the proportional share
		}
		if p < 2 {
			p = 2
		}
		if p > warmPilot {
			p = warmPilot
		}
		out[i] = p
	}
	return out
}

// priorEff returns the capped effective prior count for a stratum with
// pn prior and n fresh samples, plus the factor that scales the prior
// moment sums down to it (scaling every moment sum by f emulates pe iid
// draws from the prior distribution: means, variances and cross moments
// are all preserved).
//
//physdes:zeroalloc
func priorEff(pn, n int) (pe int, f float64) {
	if pn <= 0 {
		return 0, 0
	}
	pe = pn
	if lim := priorWeightCap * n; pe > lim {
		pe = lim
	}
	return pe, float64(pe) / float64(pn)
}

// ParamMoment holds Welford moments of one literal position of a query
// template: observation count, running mean and the centered sum of
// squares M2 (sample variance = M2/(N-1)). Two runs compare these moments
// to decide whether a template's parameter distribution drifted.
type ParamMoment struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// Observe folds one observation into the moment (Welford's update).
func (m *ParamMoment) Observe(x float64) {
	m.N++
	d := x - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (x - m.Mean)
}

// TemplateSig identifies one template of the current workload for warm
// starting: its cross-workload identity (the shape hash, stable across
// parameter changes) and the parameter-distribution moments of the
// current run's members. Order follows the workload's dense template
// indices.
type TemplateSig struct {
	ID     uint64        `json:"id"`
	Params []ParamMoment `json:"params,omitempty"`
}

// TemplateState is one template's persisted estimator state: the
// parameter signature it was sampled under plus per-configuration sample
// tallies and Kahan/Neumaier moment sums (configuration order follows
// StratState.Configs). Cross sums — Σ cost_best·cost_j versus
// StratState.Best — are present for Delta-sampled snapshots only.
type TemplateState struct {
	ID     uint64        `json:"id"`
	Params []ParamMoment `json:"params,omitempty"`
	Counts []int         `json:"counts"`
	Sum    []stats.Kahan `json:"sum"`
	Sumsq  []stats.Kahan `json:"sumsq"`
	Cross  []stats.Kahan `json:"cross,omitempty"`
}

// templateStates converts per-template, per-configuration moments into
// their persisted form; cross keeps Delta's cross sums.
func templateStates(tcols [][]moments, cross bool) []TemplateState {
	out := make([]TemplateState, len(tcols))
	for t, cols := range tcols {
		ts := TemplateState{
			Counts: make([]int, len(cols)),
			Sum:    make([]stats.Kahan, len(cols)),
			Sumsq:  make([]stats.Kahan, len(cols)),
		}
		if cross {
			ts.Cross = make([]stats.Kahan, len(cols))
		}
		for j, c := range cols {
			ts.Counts[j], ts.Sum[j], ts.Sumsq[j] = c.n, c.sum, c.sumsq
			if cross {
				ts.Cross[j] = c.cross
			}
		}
		out[t] = ts
	}
	return out
}

// StratState is a serializable snapshot of a finished selection run's
// stratification: the template partition of every stratification (one for
// Delta Sampling, one per configuration for Independent Sampling),
// per-template sample tallies and compensated moments, and the identity
// of the configurations (fingerprints) and the winner. A later run seeds
// from it via Options.WarmState: templates whose parameter distribution
// is unchanged keep their strata and moments and get a reduced pilot;
// new or drifted templates are re-piloted from scratch.
//
// The snapshot holds no maps and its slices follow dense capture order,
// so encoding is deterministic and round-trips byte-identically.
type StratState struct {
	Version int    `json:"version"`
	Scheme  string `json:"scheme"`
	Strat   string `json:"strat"`
	K       int    `json:"k"`
	// Configs are the candidate fingerprints in capture order — the
	// cross-run alignment key for every per-configuration slice.
	Configs []string `json:"configs"`
	// Incumbent is the fingerprint of the configuration the capturing run
	// adopted (set by core; empty when captured below core).
	Incumbent string `json:"incumbent,omitempty"`
	// Best is the capturing run's selected configuration index.
	Best int `json:"best"`
	// SampledQueries is the capturing run's fresh sample count.
	SampledQueries int             `json:"sampled_queries"`
	Templates      []TemplateState `json:"templates"`
	// Partitions holds the stratum boundaries as groups of template IDs:
	// one partition for Delta Sampling, one per configuration (in Configs
	// order) for Independent Sampling. Realized Neyman allocations are
	// implied by the per-template tallies of each group.
	Partitions [][][]uint64 `json:"partitions"`
}

// MarshalCanonical encodes the snapshot in its canonical byte form:
// two-space-indented JSON with a trailing newline. Encoding the same
// state always yields identical bytes, and decode → encode round-trips
// byte-identically (floats print shortest-exact).
func (st *StratState) MarshalCanonical() ([]byte, error) {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeStratState parses a snapshot serialized by MarshalCanonical.
func DecodeStratState(data []byte) (*StratState, error) {
	var st StratState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// empty reports whether the snapshot carries nothing to warm from. An
// empty (or nil) snapshot makes the warm path a bit-identical no-op.
func (st *StratState) empty() bool {
	return st == nil || len(st.Templates) == 0 || len(st.Configs) == 0
}

// WarmInfo reports what a warm start reused.
type WarmInfo struct {
	// Started is true when a prior snapshot was applied (false on cold
	// runs and when the snapshot was incompatible).
	Started bool `json:"started"`
	// StrataReused counts prior strata carried into the initial
	// stratification.
	StrataReused int `json:"strata_reused"`
	// TemplatesKnown counts templates whose prior state was reused;
	// TemplatesFresh counts templates re-piloted from scratch (new, or
	// parameter distribution drifted).
	TemplatesKnown int `json:"templates_known"`
	TemplatesFresh int `json:"templates_fresh"`
	// PilotSaved counts pilot samples skipped versus a cold start.
	PilotSaved int `json:"pilot_saved"`
	// PriorDropped counts strata whose prior the online consistency check
	// discarded mid-run (fresh evidence contradicted the snapshot).
	PriorDropped int `json:"prior_dropped,omitempty"`
}

// paramsChanged reports whether two parameter signatures describe
// different distributions: arity change, or any literal position whose
// means differ by more than 3 standard errors (two-sample z-test on the
// Welford moments). Positions without enough observations on either side
// stay inconclusive (unchanged).
func paramsChanged(cur, prior []ParamMoment) bool {
	if len(cur) != len(prior) {
		return true
	}
	for i := range cur {
		a, b := cur[i], prior[i]
		if a.N < 2 || b.N < 2 {
			continue
		}
		va := a.M2 / float64(a.N-1)
		vb := b.M2 / float64(b.N-1)
		se := math.Sqrt(va/float64(a.N) + vb/float64(b.N))
		diff := math.Abs(a.Mean - b.Mean)
		if se == 0 {
			if diff != 0 {
				return true
			}
			continue
		}
		if diff > 3*se {
			return true
		}
	}
	return false
}

// warmResume is a prior snapshot decoded against the current run: the
// config alignment, the per-template mapping into the snapshot, and the
// template-identity index used to rebuild stratum groups.
type warmResume struct {
	st     *StratState
	cfgMap []int // current config j → snapshot config index
	best   int   // snapshot best as a current config index, -1 if gone
	// stateIdx maps a current dense template index to its snapshot
	// template (-1: fresh — new, drifted, or under-observed).
	stateIdx []int
	dense    map[uint64]int // template ID → current dense index (known only)
	known    int
	fresh    int
}

// planWarm validates a snapshot against the current run and decodes it.
// It returns nil — meaning "run cold, bit-identically" — whenever the
// snapshot is nil, empty, from a different scheme/stratification, shaped
// inconsistently, or aligned with none of the current templates or
// configurations. k is the current configuration count.
func planWarm(st *StratState, opts *Options, scheme Scheme, k int) *warmResume {
	if st.empty() || st.Version != stratStateVersion {
		return nil
	}
	if st.Scheme != scheme.String() || st.Strat != opts.Strat.String() {
		return nil
	}
	members := opts.Templates.Members
	if len(members) == 0 || len(opts.TemplateSigs) != len(members) {
		return nil
	}
	if len(opts.ConfigFingerprints) != k || st.K != len(st.Configs) {
		return nil
	}
	wantParts := 1
	if scheme == Independent {
		wantParts = len(st.Configs)
	}
	if len(st.Partitions) != wantParts {
		return nil
	}
	// Moment pooling needs every current configuration aligned with a
	// snapshot column; a partial overlap would skew pairwise estimates.
	cfgMap := make([]int, k)
	for j, fp := range opts.ConfigFingerprints {
		cfgMap[j] = slices.Index(st.Configs, fp)
		if cfgMap[j] < 0 {
			return nil
		}
	}
	wr := &warmResume{
		st:       st,
		cfgMap:   cfgMap,
		best:     -1,
		stateIdx: make([]int, len(members)),
		dense:    make(map[uint64]int, len(members)),
	}
	if st.Best >= 0 && st.Best < len(st.Configs) {
		wr.best = slices.Index(opts.ConfigFingerprints, st.Configs[st.Best])
	}
	needCross := scheme == Delta
	for t := range wr.stateIdx {
		wr.stateIdx[t] = -1
		if len(members[t]) == 0 {
			continue
		}
		sig := opts.TemplateSigs[t]
		si := -1
		for i := range st.Templates {
			if st.Templates[i].ID == sig.ID {
				si = i
				break
			}
		}
		if si < 0 {
			wr.fresh++
			continue
		}
		ts := &st.Templates[si]
		nc := len(st.Configs)
		if len(ts.Counts) != nc || len(ts.Sum) != nc || len(ts.Sumsq) != nc ||
			(needCross && len(ts.Cross) != nc) {
			wr.fresh++
			continue
		}
		if paramsChanged(sig.Params, ts.Params) {
			wr.fresh++
			continue
		}
		maxCount := 0
		for _, j := range cfgMap {
			if ts.Counts[j] > maxCount {
				maxCount = ts.Counts[j]
			}
		}
		if maxCount < minTemplateObs {
			// Known but under-observed: the prior run's stratum placement
			// is still informed by this template's identity, so keep it in
			// its snapshot group — it simply contributes no prior moments
			// (stateIdx stays -1). Re-piloting it from scratch would make
			// every early-terminating run's snapshot carve most of the
			// workload into a fresh stratum and bill a full cold pilot on
			// resume.
			wr.dense[sig.ID] = t
			wr.known++
			continue
		}
		wr.stateIdx[t] = si
		wr.dense[sig.ID] = t
		wr.known++
	}
	if wr.known == 0 {
		return nil
	}
	return wr
}

// tmplPrior is a warm snapshot's per-template moments remapped to the
// current configuration order (cross sums: Delta snapshots only); rows of
// fresh templates stay nil.
type tmplPrior [][]moments

// templatePriors remaps the snapshot moments of the tc current templates
// onto the k current configurations.
func (wr *warmResume) templatePriors(tc, k int, cross bool) tmplPrior {
	pr := make(tmplPrior, tc)
	for t := 0; t < tc && t < len(wr.stateIdx); t++ {
		si := wr.stateIdx[t]
		if si < 0 {
			continue
		}
		ts := &wr.st.Templates[si]
		pr[t] = make([]moments, k)
		for j, pj := range wr.cfgMap {
			pr[t][j] = moments{n: ts.Counts[pj], sum: ts.Sum[pj], sumsq: ts.Sumsq[pj]}
			if cross {
				pr[t][j].cross = ts.Cross[pj]
			}
		}
	}
	return pr
}

// column sums configuration j's prior moments over the templates — the
// moment-reseeding hot path of a warm resume and of warm-stratum splits.
//
//physdes:zeroalloc
func (pr tmplPrior) column(templates []int, j int) moments {
	var m moments
	for _, t := range templates {
		if pr[t] != nil {
			m.merge(pr[t][j])
		}
	}
	return m
}

// groupsFor rebuilds the initial template groups for partition pi:
// snapshot strata restricted to known templates first (order preserved,
// members sorted by dense index), then the fresh templates grouped per
// the stratification mode's cold-start semantics.
func (wr *warmResume) groupsFor(pi int, members [][]int, mode StratMode) (groups [][]int, reused int) {
	placed := make([]bool, len(wr.stateIdx))
	for _, part := range wr.st.Partitions[pi] {
		var g []int
		for _, id := range part {
			if t, ok := wr.dense[id]; ok && !placed[t] {
				g = append(g, t)
				placed[t] = true
			}
		}
		if len(g) > 0 {
			slices.Sort(g)
			groups = append(groups, g)
		}
	}
	reused = len(groups)
	var leftover []int
	for t := range wr.stateIdx {
		if !placed[t] && len(members[t]) > 0 {
			leftover = append(leftover, t)
		}
	}
	switch {
	case len(leftover) == 0:
	case mode == Fine || mode == EqualAlloc:
		for _, t := range leftover {
			groups = append(groups, []int{t})
		}
	default:
		groups = append(groups, leftover)
	}
	return groups, reused
}
