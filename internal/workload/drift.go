package workload

import (
	"fmt"

	"physdes/internal/catalog"
	"physdes/internal/stats"
)

// DriftOptions configures GenTPCDDrift: an ordered sequence of workload
// windows whose template mix and constant distributions evolve over time.
// Two drift mechanisms compose:
//
//   - template churn: each window swaps Churn active templates against the
//     inactive pool, so later windows contain templates the earlier ones
//     never saw (and vice versa);
//   - Zipf-parameter drift: each window adds ThetaDrift to every column's
//     skew, shifting which constants the generated predicates hit without
//     changing any template's shape.
//
// Both are fully determined by Seed.
type DriftOptions struct {
	// Windows is the number of ordered windows to generate (default 3).
	Windows int
	// Size is the number of statements per window (default 200).
	Size int
	// ActiveTemplates is how many templates are live in each window
	// (default 12, capped at the template pool size).
	ActiveTemplates int
	// Churn is how many active templates are swapped against the inactive
	// pool at each window boundary (default 2).
	Churn int
	// ThetaDrift is the Zipf skew added per window: window w generates
	// constants with every column's skew shifted by w*ThetaDrift
	// (default 0.15).
	ThetaDrift float64
	// Seed determines the whole sequence.
	Seed uint64
}

func (o DriftOptions) withDefaults() DriftOptions {
	if o.Windows <= 0 {
		o.Windows = 3
	}
	if o.Size <= 0 {
		o.Size = 200
	}
	if o.ActiveTemplates <= 0 {
		o.ActiveTemplates = 12
	}
	if o.ActiveTemplates > len(tpcdTemplates) {
		o.ActiveTemplates = len(tpcdTemplates)
	}
	if o.Churn < 0 {
		o.Churn = 0
	}
	if o.Churn == 0 {
		o.Churn = 2
	}
	if o.ThetaDrift == 0 {
		o.ThetaDrift = 0.15
	}
	return o
}

// DriftWindow is one window of a drifting workload sequence.
type DriftWindow struct {
	// W is the parsed window workload.
	W *Workload
	// Active lists the names of the templates live in this window, in
	// deterministic pool order.
	Active []string
	// IDs holds, parallel to Active, the shape-hash template ID observed
	// for each active template (0 if the weighted draw never picked it).
	IDs []uint64
	// Weights holds, parallel to Active, each template's normalized draw
	// weight; the entries sum to 1.
	Weights []float64
	// ThetaShift is the Zipf skew shift this window was generated with.
	ThetaShift float64
}

// GenTPCDDrift generates an ordered sequence of TPC-D style workload
// windows with template churn and Zipf-parameter drift, deterministically
// from o.Seed. Template identity is stable across windows: a template
// active in two windows parses to the same shape-hash ID in both, which
// is what lets a warm-started selection carry its strata forward.
func GenTPCDDrift(cat *catalog.Catalog, o DriftOptions) ([]DriftWindow, error) {
	o = o.withDefaults()

	// Split the template pool into an initial active set and the
	// inactive remainder; churn swaps across the boundary.
	active := make([]int, o.ActiveTemplates)
	for i := range active {
		active[i] = i
	}
	inactive := make([]int, 0, len(tpcdTemplates)-o.ActiveTemplates)
	for i := o.ActiveTemplates; i < len(tpcdTemplates); i++ {
		inactive = append(inactive, i)
	}
	churnRNG := stats.NewRNG(o.Seed ^ 0x9e3779b97f4a7c15)

	windows := make([]DriftWindow, 0, o.Windows)
	for wi := 0; wi < o.Windows; wi++ {
		if wi > 0 {
			for c := 0; c < o.Churn && len(inactive) > 0; c++ {
				ai := churnRNG.Intn(len(active))
				ii := churnRNG.Intn(len(inactive))
				active[ai], inactive[ii] = inactive[ii], active[ai]
			}
		}

		tmpls := make([]tpcdTemplate, len(active))
		for i, ti := range active {
			tmpls[i] = tpcdTemplates[ti]
		}
		shift := float64(wi) * o.ThetaDrift
		g := &tpcdGen{
			cat:        cat,
			rng:        stats.NewRNG(o.Seed + uint64(wi+1)*0x9e3779b97f4a7c15),
			zipfs:      make(map[string]*stats.ZipfGen),
			thetaShift: shift,
		}
		sqls, picks := genWeighted(g, o.Size, tmpls)
		w, err := Parse(cat, sqls)
		if err != nil {
			return nil, fmt.Errorf("drift window %d: %w", wi, err)
		}

		dw := DriftWindow{
			W:          w,
			Active:     make([]string, len(tmpls)),
			IDs:        make([]uint64, len(tmpls)),
			Weights:    make([]float64, len(tmpls)),
			ThetaShift: shift,
		}
		total := 0
		for _, t := range tmpls {
			total += t.weight
		}
		for i, t := range tmpls {
			dw.Active[i] = t.name
			dw.Weights[i] = float64(t.weight) / float64(total)
		}
		// Recover each active template's observed shape ID from the
		// parsed workload so callers can check cross-window identity.
		of := w.Partition().Of
		infos := w.Templates()
		for qi, pick := range picks {
			dw.IDs[pick] = uint64(infos[of[qi]].ID)
		}
		windows = append(windows, dw)
	}
	return windows, nil
}
