package sampling

import "physdes/internal/obs"

// samplerMetrics holds the driver's metric handles for both schemes,
// resolved once at construction. Without a registry every handle is nil
// and each update is a no-op nil-check.
type samplerMetrics struct {
	samples        *obs.Counter
	rounds         *obs.Counter
	splits         *obs.Counter
	eliminations   *obs.Counter
	splitEvals     *obs.Counter
	splitSearch    *obs.Histogram
	roundSeconds   *obs.Histogram
	warmStarts     *obs.Counter
	warmStrata     *obs.Counter
	warmPilotSaved *obs.Counter
	warmPriorDrop  *obs.Counter
}

func newSamplerMetrics(r *obs.Registry) samplerMetrics {
	return samplerMetrics{
		samples:        r.Counter("sampling_samples_total"),
		rounds:         r.Counter("sampling_rounds_total"),
		splits:         r.Counter("sampling_splits_total"),
		eliminations:   r.Counter("sampling_eliminations_total"),
		splitEvals:     r.Counter("sampling_split_evals_total"),
		splitSearch:    r.Histogram("sampling_split_search_seconds"),
		roundSeconds:   r.Histogram("select_round_seconds"),
		warmStarts:     r.Counter("sampling_warm_starts_total"),
		warmStrata:     r.Counter("sampling_warm_strata_reused_total"),
		warmPilotSaved: r.Counter("sampling_warm_pilot_saved_total"),
		warmPriorDrop:  r.Counter("sampling_warm_prior_dropped_total"),
	}
}
