package optimizer

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"physdes/internal/obs"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// This file implements CoPhy-style atomic-configuration what-if sharing:
// instead of treating every (statement, configuration) pair as an
// independent what-if call, a configuration is decomposed into the small
// "atomic" sub-configurations the cost model can actually read for that
// statement, each (statement, atom) pair is costed once, and the full
// configuration's cost is reassembled as a minimum over its atoms. With
// overlapping candidate configurations — the k=500 regime of Section 7.2,
// where candidates are perturbations around a tuned base — most pairs
// share all their atoms with earlier pairs and cost nothing.
//
// The decomposition is exact, not approximate. Two facts about the cost
// model make that possible:
//
//  1. Every configuration read is mediated by cfg.IndexesOn(t) for a table
//     t the statement references, or by cfg.Views() filtered to views whose
//     tables are a subset of the statement's tables (SELECT) or that
//     contain the modified table (DML). Projecting the configuration onto
//     those *relevant* structures therefore cannot change the cost — the
//     evaluator never observes the dropped structures — provided the
//     projection keeps the by-ID ordering (it does: NewConfiguration
//     sorts), because indexNLCost takes the FIRST lead-matching index in
//     ID order rather than a minimum.
//
//  2. For a single-table SELECT with no matching views the plan cost is
//     g(bestAccess, bestAccessOrdered) where both arms are minima over the
//     per-index candidate paths plus the heap baseline, and g is monotone
//     in both arguments — so the minimum distributes over singleton atoms:
//     cost(cfg) = min over i∈cfg of cost({i}), with the empty atom
//     supplying the heap baseline. That is the maximally-shared form: a
//     singleton atom's cost is reused by every configuration containing
//     the index.
//
// Multi-table statements, DML, and view-bearing configurations use the
// single projection atom of fact 1 (the join arms and view-substitution
// comparisons read several structures jointly, so per-index minima would
// not be exact); single-table SELECTs use the singleton atoms of fact 2.

// DefaultMaxAtomWidth bounds the number of structures a projection atom
// may hold. Projections wider than the bound (possible only for
// statements referencing many tables under very wide configurations) fall
// back to one direct what-if call on the full configuration, keeping the
// atom-store keys small and the sharing profitable.
const DefaultMaxAtomWidth = 16

// AtomPlan is the result of decomposing one (statement, configuration)
// evaluation: either the atoms whose cost minimum reproduces the direct
// cost exactly, or Fallback when the statement should be costed directly
// against the full configuration.
type AtomPlan struct {
	Atoms    []*physical.Configuration
	Fallback bool
}

// emptyAtom is the shared zero-structure atom: it contributes the heap-scan
// baseline to every singleton decomposition.
var emptyAtom = physical.NewConfiguration("atom")

// Decompose splits the evaluation of a under cfg into atoms such that the
// minimum of the atoms' costs equals the direct cost of cfg exactly
// (TestAtomicCostEquivalence pins this bit-for-bit). maxWidth bounds the
// projection atom's structure count (<= 0 selects DefaultMaxAtomWidth).
func Decompose(a *sqlparse.Analysis, cfg *physical.Configuration, maxWidth int) AtomPlan {
	return decomposePlan(a, cfg, maxWidth, func(ix *physical.Index) *physical.Configuration {
		return physical.NewConfiguration("atom", ix)
	})
}

// decomposePlan is Decompose with a pluggable singleton-atom constructor so
// the AtomicCache can intern the (heavily reused) singleton configurations.
func decomposePlan(a *sqlparse.Analysis, cfg *physical.Configuration, maxWidth int, singleton func(*physical.Index) *physical.Configuration) AtomPlan {
	if maxWidth <= 0 {
		maxWidth = DefaultMaxAtomWidth
	}
	ixs, views := relevantStructures(a, cfg)
	if a.Kind == sqlparse.KindSelect && len(a.Tables) == 1 && len(views) == 0 {
		atoms := make([]*physical.Configuration, 0, len(ixs)+1)
		atoms = append(atoms, emptyAtom)
		for _, ix := range ixs {
			atoms = append(atoms, singleton(ix))
		}
		return AtomPlan{Atoms: atoms}
	}
	if len(ixs)+len(views) > maxWidth {
		return AtomPlan{Fallback: true}
	}
	structs := make([]physical.Structure, 0, len(ixs)+len(views))
	for _, ix := range ixs {
		structs = append(structs, ix)
	}
	for _, v := range views {
		structs = append(structs, v)
	}
	return AtomPlan{Atoms: []*physical.Configuration{physical.NewConfiguration("atom", structs...)}}
}

// relevantStructures projects cfg onto the structures the cost model can
// read while evaluating a. The filter is conservative: it may keep an
// index no plan arm ends up using, but it must never drop one any arm
// could read (FuzzAtomDecompose hunts for violations).
func relevantStructures(a *sqlparse.Analysis, cfg *physical.Configuration) ([]*physical.Index, []*physical.View) {
	var ixs []*physical.Index
	var views []*physical.View
	if a.Kind != sqlparse.KindSelect {
		// DML: the locate part seeks the modified table (bestAccess over all
		// its indexes) and the write part maintains every index on it and
		// every view containing it.
		ixs = append(ixs, cfg.IndexesOn(a.ModifiedTable)...)
		for _, t := range a.Tables {
			if t == a.ModifiedTable {
				continue
			}
			ixs = appendRelevantIndexes(ixs, a, t, cfg)
		}
		for _, v := range cfg.Views() {
			if v.HasTable(a.ModifiedTable) || tablesSubset(v.Tables, a.Tables) {
				views = append(views, v)
			}
		}
		return ixs, views
	}
	for _, t := range a.Tables {
		ixs = appendRelevantIndexes(ixs, a, t, cfg)
	}
	for _, v := range cfg.Views() {
		// viewMatches (plain or aggregate) requires every view table to be a
		// query table; anything else can never substitute.
		if tablesSubset(v.Tables, a.Tables) {
			views = append(views, v)
		}
	}
	return ixs, views
}

// appendRelevantIndexes keeps every index on table that some arm of the
// SELECT cost model can read: a sargable lead column (IndexSeek), a
// covering key+include set (IndexScan), a lead column equal to one of the
// table's join columns (merge-join and index-nested-loop arms — ALL such
// indexes are kept because indexNLCost takes the first in ID order, not
// the cheapest), or a lead column equal to the first ORDER BY column (the
// sort-elimination arm).
func appendRelevantIndexes(dst []*physical.Index, a *sqlparse.Analysis, table string, cfg *physical.Configuration) []*physical.Index {
	refCols := referencedColumns(a, table)
	order := orderColumns(a)
	for _, ix := range cfg.IndexesOn(table) {
		lead := ix.LeadColumn()
		keep := false
		if _, kind := findSargable(a, table, lead); kind != sargNone {
			keep = true
		}
		if !keep && ix.Covers(refCols) {
			keep = true
		}
		if !keep {
			for _, j := range a.Joins {
				if (j.Left.Table == table && j.Left.Column == lead) ||
					(j.Right.Table == table && j.Right.Column == lead) {
					keep = true
					break
				}
			}
		}
		if !keep && len(order) > 0 && order[0] == lead {
			keep = true
		}
		if keep {
			dst = append(dst, ix)
		}
	}
	return dst
}

func tablesSubset(sub, super []string) bool {
	for _, t := range sub {
		if !contains(super, t) {
			return false
		}
	}
	return true
}

// AtomicCache is the atom store: a sharded memo of (statement, atom) costs
// consulted by the Cached layer before any direct costing. It reuses the
// memo cache's key scheme (statement pointer identity + configuration
// fingerprint) and 64-way sharding, so batch-pool workers contend on
// per-shard locks only. Like the memo cache, it deduplicates concurrent
// misses on the same atom in flight, so each distinct atom pays exactly
// one inner call however the probes race.
type AtomicCache struct {
	inner    *Optimizer
	maxWidth int

	shards  [cacheShards]cacheShard
	entries atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	fallbacks atomic.Int64

	// singletons interns the one-index atoms (keyed by index pointer —
	// candidate structures are shared across configurations), so the hot
	// decompose path does not rebuild them per request.
	singletons sync.Map

	metrics atomic.Pointer[atomMetrics]
}

// atomMetrics holds the registry handles resolved by SetMetrics.
type atomMetrics struct {
	hits    *obs.Counter
	atoms   *obs.Counter
	latency *obs.Histogram
}

// NewAtomicCache builds an atom store over the optimizer. maxWidth bounds
// projection-atom width (<= 0 selects DefaultMaxAtomWidth).
func NewAtomicCache(inner *Optimizer, maxWidth int) *AtomicCache {
	if maxWidth <= 0 {
		maxWidth = DefaultMaxAtomWidth
	}
	ac := &AtomicCache{inner: inner, maxWidth: maxWidth}
	for i := range ac.shards {
		ac.shards[i].init()
	}
	return ac
}

// SetMetrics exports the atom store's accounting on the registry:
// optimizer_atom_hits_total (reassemblies served from the store),
// optimizer_atoms_total (distinct (statement, atom) costings paid), and
// the optimizer_atom_cost_seconds histogram (time spent costing atoms —
// per atom on the serial path, per dispatched batch on the batch path).
// Passing nil detaches.
func (ac *AtomicCache) SetMetrics(r *obs.Registry) {
	if r == nil {
		ac.metrics.Store(nil)
		return
	}
	ac.metrics.Store(&atomMetrics{
		hits:    r.Counter("optimizer_atom_hits_total"),
		atoms:   r.Counter("optimizer_atoms_total"),
		latency: r.Histogram("optimizer_atom_cost_seconds"),
	})
}

// MaxWidth returns the projection-atom width bound.
func (ac *AtomicCache) MaxWidth() int { return ac.maxWidth }

// Stats reports the store's accounting: atom-store hits, atom costings
// paid (misses), width-bound fallbacks to direct costing, and the number
// of distinct atoms stored.
func (ac *AtomicCache) Stats() (hits, misses, fallbacks int64, entries int) {
	return ac.hits.Load(), ac.misses.Load(), ac.fallbacks.Load(), int(ac.entries.Load())
}

// Reset clears the atom store and its counters.
func (ac *AtomicCache) Reset() {
	for i := range ac.shards {
		ac.shards[i].reset()
	}
	ac.entries.Store(0)
	ac.hits.Store(0)
	ac.misses.Store(0)
	ac.fallbacks.Store(0)
}

// decompose is Decompose with singleton-atom interning.
func (ac *AtomicCache) decompose(a *sqlparse.Analysis, cfg *physical.Configuration) AtomPlan {
	return decomposePlan(a, cfg, ac.maxWidth, ac.singleton)
}

func (ac *AtomicCache) singleton(ix *physical.Index) *physical.Configuration {
	if v, ok := ac.singletons.Load(ix); ok {
		return v.(*physical.Configuration)
	}
	v, _ := ac.singletons.LoadOrStore(ix, physical.NewConfiguration("atom", ix))
	return v.(*physical.Configuration)
}

// Cost evaluates the statement under cfg as the minimum over its atoms'
// memoized costs. Statements whose projection exceeds the width bound pay
// one direct what-if call instead.
func (ac *AtomicCache) Cost(a *sqlparse.Analysis, cfg *physical.Configuration) float64 {
	plan := ac.decompose(a, cfg)
	if plan.Fallback {
		ac.fallbacks.Add(1)
		return ac.inner.Cost(a, cfg)
	}
	best := math.Inf(1)
	for _, atom := range plan.Atoms {
		if v := ac.atomCost(a, atom); v < best {
			best = v
		}
	}
	return best
}

func (ac *AtomicCache) lookup(key cacheKey) (float64, bool) {
	return ac.shards[shardIndex(key)].get(key)
}

func (ac *AtomicCache) store(key cacheKey, v float64) {
	if ac.shards[shardIndex(key)].put(key, v) {
		ac.entries.Add(1)
	}
}

// atomCost returns the memoized cost of one (statement, atom) pair,
// consulting the inner optimizer on a miss; concurrent misses on the same
// atom wait for the first one's value (see Cached.Cost).
func (ac *AtomicCache) atomCost(a *sqlparse.Analysis, atom *physical.Configuration) float64 {
	key := cacheKey{a: a, cfg: atom.Fingerprint()}
	sh := &ac.shards[shardIndex(key)]
	v, ok := sh.get(key)
	if !ok {
		v, ok = sh.claim(key)
	}
	m := ac.metrics.Load()
	if ok {
		ac.hits.Add(1)
		if m != nil {
			m.hits.Inc()
		}
		return v
	}
	ac.misses.Add(1)
	filled := false
	defer func() {
		if !filled {
			sh.release(key) // costing panicked: let a waiter retry
		}
	}()
	if m != nil {
		m.atoms.Inc()
		sw := obs.NewStopwatch()
		v = ac.inner.Cost(a, atom)
		m.latency.Observe(sw.Elapsed().Seconds())
	} else {
		v = ac.inner.Cost(a, atom)
	}
	if sh.fill(key, v) {
		ac.entries.Add(1)
	}
	filled = true
	return v
}

// batchIntoCtx evaluates the (already memo-deduplicated) requests with
// atom sharing: decompose every request serially in order, dedupe the
// batch's unseen atoms in first-occurrence order, cost them through the
// inner batch pool, then reassemble each request's cost as the minimum
// over its atoms. Hit/miss accounting and inner-call counts are identical
// to evaluating the requests serially through Cost, at every parallelism
// level — the cost values themselves are pure, so the result is
// bit-identical too.
func (ac *AtomicCache) batchIntoCtx(ctx context.Context, reqs []Request, out []float64, parallelism int) error {
	n := len(reqs)
	plans := make([]AtomPlan, n)
	have := make(map[cacheKey]float64, n)
	pending := make(map[cacheKey]int, n)
	fallbackSlot := make([]int, n)
	var missing []Request
	var missingKeys []cacheKey
	m := ac.metrics.Load()
	for i, r := range reqs {
		if err := ctx.Err(); err != nil {
			return err
		}
		plans[i] = ac.decompose(r.Analysis, r.Config)
		fallbackSlot[i] = -1
		if plans[i].Fallback {
			ac.fallbacks.Add(1)
			fallbackSlot[i] = len(missing)
			missing = append(missing, r)
			missingKeys = append(missingKeys, cacheKey{}) // sentinel: not stored
			continue
		}
		for _, atom := range plans[i].Atoms {
			key := cacheKey{a: r.Analysis, cfg: atom.Fingerprint()}
			if _, ok := have[key]; ok {
				ac.hits.Add(1)
				if m != nil {
					m.hits.Inc()
				}
				continue
			}
			if _, ok := pending[key]; ok {
				ac.hits.Add(1)
				if m != nil {
					m.hits.Inc()
				}
				continue
			}
			if v, ok := ac.lookup(key); ok {
				ac.hits.Add(1)
				if m != nil {
					m.hits.Inc()
				}
				have[key] = v
				continue
			}
			ac.misses.Add(1)
			if m != nil {
				m.atoms.Inc()
			}
			pending[key] = len(missing)
			missing = append(missing, Request{Analysis: r.Analysis, Config: atom})
			missingKeys = append(missingKeys, key)
		}
	}
	if len(missing) > 0 {
		vals := make([]float64, len(missing))
		var sw obs.Stopwatch
		if m != nil {
			sw = obs.NewStopwatch()
		}
		if err := ac.inner.BatchIntoCtx(ctx, missing, vals, parallelism); err != nil {
			return err
		}
		if m != nil {
			m.latency.Observe(sw.Elapsed().Seconds())
		}
		for i, key := range missingKeys {
			if key.a == nil {
				continue // width-bound fallback: direct result, not an atom
			}
			have[key] = vals[i]
			ac.store(key, vals[i])
		}
		for i := range reqs {
			if s := fallbackSlot[i]; s >= 0 {
				out[i] = vals[s]
			}
		}
	}
	for i, r := range reqs {
		if fallbackSlot[i] >= 0 {
			continue
		}
		best := math.Inf(1)
		for _, atom := range plans[i].Atoms {
			if v := have[cacheKey{a: r.Analysis, cfg: atom.Fingerprint()}]; v < best {
				best = v
			}
		}
		out[i] = best
	}
	return nil
}
