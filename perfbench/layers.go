package main

import (
	"physdes/internal/obs"
	"physdes/internal/obs/recorder"
)

// layers collects the per-layer metrics of a traced run. A layer the
// workload never enters reports 0.
type layers struct {
	oracle oracleTimes
	// selectWallS is the wall time of the traced selections, timed around
	// core.Select (serve-mixed: the jobs' select phase from their flight
	// recorders).
	selectWallS float64
	// calls are the selections' OptimizerCalls.
	calls int64
	// deriveS and pilotS come from the flight recorders' phases; deriveS
	// is 0 outside conservative mode.
	deriveS, pilotS float64
	roundMS         []float64
	snap            obs.Snapshot

	boundsIntervalsS, boundsSigmaDPS, boundsCLTS float64
	boundsCLTMin, boundsSigmaFallback            int

	genS, enumerateS, spaceS float64
	parseUSPerStmt           float64

	serveExecMS, serveQueueMS []float64
	serveJobMSP90             float64
	serveUploadMSP50          float64
	serveUploadShare          float64
	serveRejects              int64
	serveHeapGrowthMB         float64

	wrongPickRate, errorRate float64
	overheadPct              float64
}

// emit sets every per-layer metric on r.
func (l *layers) emit(r *result) {
	busy := float64(l.oracle.busyNS.Load()) / 1e9
	probes := float64(l.oracle.probes.Load())
	batches := float64(l.oracle.batches.Load())
	calls := float64(l.calls)
	c := func(name string) float64 { return float64(l.snap.Counters[name]) }

	r.set("optimizer.oracle_busy_s", busy, "s")
	r.set("optimizer.oracle_share", ratio(busy, l.selectWallS), "ratio")
	r.set("optimizer.probes", probes, "count")
	r.set("optimizer.calls", calls, "count")
	r.set("optimizer.probes_per_call", ratio(probes, calls), "ratio")
	r.set("optimizer.ns_per_probe", ratio(busy*1e9, probes), "ns")
	hits, misses := c("optimizer_cache_hits_total"), c("optimizer_cache_misses_total")
	r.set("optimizer.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	atomHits, atoms := c("optimizer_atom_hits_total"), c("optimizer_atoms_total")
	r.set("optimizer.atom_hit_ratio", ratio(atomHits, atomHits+atoms), "ratio")
	r.set("optimizer.batches", batches, "count")
	r.set("optimizer.batch_size_mean", ratio(float64(l.oracle.batchProbes.Load()), batches), "count")

	r.set("sampling.select_wall_s", l.selectWallS, "s")
	r.set("sampling.self_s", l.selectWallS-busy-l.deriveS, "s")
	r.set("sampling.pilot_s", l.pilotS, "s")
	r.set("sampling.rounds", c("sampling_rounds_total"), "count")
	r.set("sampling.samples", c("sampling_samples_total"), "count")
	r.set("sampling.splits", c("sampling_splits_total"), "count")
	r.set("sampling.split_evals", c("sampling_split_evals_total"), "count")
	r.set("sampling.split_search_s", l.snap.Histograms["sampling_split_search_seconds"].Sum, "s")
	r.set("sampling.eliminations", c("sampling_eliminations_total"), "count")
	r.set("sampling.round_ms_p50", median(l.roundMS), "ms")

	r.set("bounds.derive_s", l.deriveS, "s")
	r.set("bounds.intervals_s", l.boundsIntervalsS, "s")
	r.set("bounds.sigma_dp_s", l.boundsSigmaDPS, "s")
	r.set("bounds.clt_s", l.boundsCLTS, "s")
	r.set("bounds.clt_min_samples", float64(l.boundsCLTMin), "count")
	r.set("bounds.sigma_dp_fallback", float64(l.boundsSigmaFallback), "count")

	r.set("workload.gen_s", l.genS, "s")
	r.set("physical.enumerate_s", l.enumerateS, "s")
	r.set("physical.space_s", l.spaceS, "s")
	r.set("sqlparse.parse_us_per_stmt", l.parseUSPerStmt, "us")

	r.set("serve.exec_ms_p50", median(l.serveExecMS), "ms")
	r.set("serve.queue_wait_ms_p50", median(l.serveQueueMS), "ms")
	r.set("serve.job_ms_p90", l.serveJobMSP90, "ms")
	r.set("serve.upload_ms_p50", l.serveUploadMSP50, "ms")
	r.set("serve.upload_share", l.serveUploadShare, "ratio")
	r.set("serve.admission_rejects", float64(l.serveRejects), "count")
	r.set("serve.heap_growth_mb", l.serveHeapGrowthMB, "MB")

	r.set("quality.wrong_pick_rate", l.wrongPickRate, "ratio")
	r.set("quality.error_rate", l.errorRate, "ratio")
	r.set("trace.overhead_pct", l.overheadPct, "%")
}

// phaseS returns the duration of the named flight-recorder phase in
// seconds (0 when the run had no such phase).
func phaseS(rep *recorder.RunReport, name string) float64 {
	for _, ph := range rep.Phases {
		if ph.Name == name {
			return float64(ph.DurUS) / 1e6
		}
	}
	return 0
}

// addReport folds one selection's flight-recorder report into l. The
// recorder's pilot phase runs from the start of the selection, so the
// bound derivation before it is subtracted.
func (l *layers) addReport(rep *recorder.RunReport) {
	derive := phaseS(rep, "derive_bounds")
	l.deriveS += derive
	l.pilotS += phaseS(rep, "pilot") - derive
	for j := 1; j < len(rep.Rounds); j++ {
		l.roundMS = append(l.roundMS, float64(rep.Rounds[j].TSUS-rep.Rounds[j-1].TSUS)/1000)
	}
}
