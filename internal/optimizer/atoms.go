package optimizer

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

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
//     projection keeps each table's index order (it does: the atom is
//     built in cfg.IndexesOn order, and interned by that sequence),
//     because indexNLCost takes the FIRST lead-matching index rather than
//     a minimum.
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
//
// A Delta Sampling row costs one statement under every alive
// configuration, and those configurations share most of their atoms: the
// empty atom appears in every singleton decomposition, and a candidate
// index in many configurations. CostRow therefore costs a whole row with a
// per-call memo (rowMemo): each index's relevance to the statement is
// decided once per row, each singleton atom interned once, and each
// distinct atom id looked up in the sharded store once. Later occurrences
// count as store hits, exactly as the later probes of a pair-by-pair row
// would, so values and accounting are identical to len(cfgs) Cost calls.

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
// baseline to every singleton decomposition. Every interner gives its
// fingerprint id 0.
var emptyAtom = atomRef{cfg: physical.NewConfiguration("atom")}

// atomRef is an interned atom and its id: the number its interner gave the
// atom's fingerprint, which keys the atom store.
type atomRef struct {
	cfg *physical.Configuration
	id  uint32
}

// atomStackLen is the number of relevant indexes the probe path's stack
// scratch holds; a wider projection sizes heap scratch once per call.
const atomStackLen = 32

// Decompose splits the evaluation of a under cfg into atoms such that the
// minimum of the atoms' costs equals the direct cost of cfg exactly
// (TestAtomicCostEquivalence pins this bit-for-bit). maxWidth bounds the
// projection atom's structure count (<= 0 selects DefaultMaxAtomWidth).
func Decompose(a *sqlparse.Analysis, cfg *physical.Configuration, maxWidth int) AtomPlan {
	atoms, fallback := decompose(a, cfg, maxWidth, new(atomInterner), nil, nil, nil, nil)
	if fallback {
		return AtomPlan{Fallback: true}
	}
	plan := AtomPlan{Atoms: make([]*physical.Configuration, len(atoms))}
	for i, at := range atoms {
		plan.Atoms[i] = at.cfg
	}
	return plan
}

// decompose is the one decomposition routine behind Decompose and
// AtomicCache.CostRow. It projects cfg onto the structures a can read,
// gathered into ixBuf and viewBuf, and returns in atomBuf the atoms whose
// cost minimum reproduces the direct cost: the
// empty atom plus one singleton per relevant index for a single-table
// SELECT with no relevant views, else the one projection atom — or, with
// fallback set, cfg itself when that projection holds more than maxWidth
// structures. Atoms and ids come from in, so each distinct atom is built
// once per interner. memo, when non-nil, is the row's memo of index
// relevance and singleton atoms for statement a. Scratch slices that are
// too small are replaced by heap slices.
//
//physdes:zeroalloc
func decompose(a *sqlparse.Analysis, cfg *physical.Configuration, maxWidth int, in *atomInterner, memo *rowMemo, ixBuf []*physical.Index, viewBuf []*physical.View, atomBuf []atomRef) (atoms []atomRef, fallback bool) {
	if maxWidth <= 0 {
		maxWidth = DefaultMaxAtomWidth
	}
	ixs, views := relevantStructures(a, cfg, memo, ixBuf, viewBuf)
	if a.Kind == sqlparse.KindSelect && len(a.Tables) == 1 && len(views) == 0 {
		atoms = scratch(atomBuf, len(ixs)+1)
		atoms = put(atoms, emptyAtom)
		for _, ix := range ixs {
			atoms = put(atoms, memo.singleton(in, ix))
		}
		return atoms, false
	}
	if len(ixs)+len(views) > maxWidth {
		return put(scratch(atomBuf, 1), in.fallback(cfg)), true
	}
	return put(scratch(atomBuf, 1), in.projection(ixs, views)), false
}

// relevantStructures projects cfg onto the structures the cost model can
// read while evaluating a, gathering them into the scratch slices. The
// filter is conservative: it may keep an index no plan arm ends up using,
// but it must never drop one any arm could read (FuzzAtomDecompose hunts
// for violations).
//
//physdes:zeroalloc
func relevantStructures(a *sqlparse.Analysis, cfg *physical.Configuration, memo *rowMemo, ixBuf []*physical.Index, viewBuf []*physical.View) ([]*physical.Index, []*physical.View) {
	// The projection holds at most every index of cfg; only a cfg wider
	// than the scratch pays for the exact count.
	n := len(cfg.Indexes())
	if n > len(ixBuf) {
		n = 0
		for _, t := range a.Tables {
			n += len(cfg.IndexesOn(t))
		}
		if a.Kind != sqlparse.KindSelect && !contains(a.Tables, a.ModifiedTable) {
			n += len(cfg.IndexesOn(a.ModifiedTable))
		}
	}
	ixs := scratch(ixBuf, n)
	views := scratch(viewBuf, len(cfg.Views()))
	if a.Kind != sqlparse.KindSelect {
		// DML: the locate part seeks the modified table (bestAccess over all
		// its indexes) and the write part maintains every index on it and
		// every view containing it.
		for _, ix := range cfg.IndexesOn(a.ModifiedTable) {
			ixs = put(ixs, ix)
		}
		for _, t := range a.Tables {
			if t == a.ModifiedTable {
				continue
			}
			ixs = appendRelevantIndexes(ixs, a, t, cfg, memo)
		}
		for _, v := range cfg.Views() {
			if v.HasTable(a.ModifiedTable) || tablesSubset(v.Tables, a.Tables) {
				views = put(views, v)
			}
		}
		return ixs, views
	}
	for _, t := range a.Tables {
		ixs = appendRelevantIndexes(ixs, a, t, cfg, memo)
	}
	for _, v := range cfg.Views() {
		// viewMatches (plain or aggregate) requires every view table to be a
		// query table; anything else can never substitute.
		if tablesSubset(v.Tables, a.Tables) {
			views = put(views, v)
		}
	}
	return ixs, views
}

// appendRelevantIndexes appends the indexes on table that relevantIndex
// keeps. The verdict depends only on the statement and the index, so
// memo, when non-nil, decides each index once per row. dst has room for
// every index on the table.
//
//physdes:zeroalloc
func appendRelevantIndexes(dst []*physical.Index, a *sqlparse.Analysis, table string, cfg *physical.Configuration, memo *rowMemo) []*physical.Index {
	var refs reads
	haveRefs := false
	for _, ix := range cfg.IndexesOn(table) {
		e := memo.rel(ix)
		var keep bool
		if e != nil && e.ix == ix {
			keep = e.keep
		} else {
			if !haveRefs {
				refs, haveRefs = refReads(a, table), true
			}
			keep = relevantIndex(a, table, refs, ix)
			if e != nil {
				e.ix, e.keep = ix, keep
			}
		}
		if keep {
			dst = put(dst, ix)
		}
	}
	return dst
}

// relevantIndex reports whether some arm of the SELECT cost model can read
// ix, an index on table: a sargable lead column (IndexSeek), a covering
// key+include set (IndexScan), a lead column equal to one of the table's
// join columns (merge-join and index-nested-loop arms — ALL such indexes
// are kept because indexNLCost takes the first in order, not the
// cheapest), or a lead column equal to the first ORDER BY column (the
// sort-elimination arm). refs is what the statement reads of table.
//
//physdes:zeroalloc
func relevantIndex(a *sqlparse.Analysis, table string, refs reads, ix *physical.Index) bool {
	lead := ix.LeadColumn()
	if _, kind := findSargable(a, table, lead); kind != sargNone {
		return true
	}
	if refs.coveredBy(ix) {
		return true
	}
	for _, j := range a.Joins {
		if (j.Left.Table == table && j.Left.Column == lead) ||
			(j.Right.Table == table && j.Right.Column == lead) {
			return true
		}
	}
	return len(a.OrderBy) > 0 && a.OrderBy[0].Col.Column == lead
}

func tablesSubset(sub, super []string) bool {
	for _, t := range sub {
		if !contains(super, t) {
			return false
		}
	}
	return true
}

// atomInterner interns atom configurations so each is built once:
// singleton atoms by index pointer (candidate structures are shared across
// configurations) and projection atoms by their structure-ID sequence.
// Projection lookups hash that sequence with FNV-1a as they walk the IDs
// and confirm a hit structure by structure, so no key string is built.
//
// It also numbers fingerprints: the first atom (or width-bound fallback
// configuration) interned with a fingerprint gives it the next id, and
// every later one with that fingerprint gets the same id. The atom store
// keys by id, so it shares entries exactly as a fingerprint key would —
// across distinct *Configuration values and across projection atoms
// holding one structure set in different orders — without hashing or
// comparing fingerprint strings on the probe path.
type atomInterner struct {
	mu      sync.RWMutex
	singles map[*physical.Index]atomRef
	proj    map[uint64][]atomRef
	ids     map[string]uint32
}

// singleton returns the interned one-index atom of ix.
//
//physdes:zeroalloc
func (in *atomInterner) singleton(ix *physical.Index) atomRef {
	in.mu.RLock()
	r, ok := in.singles[ix]
	in.mu.RUnlock()
	if ok {
		return r
	}
	return in.internSingleton(ix) //physdes:allocok intern on first sight: each index's singleton atom is built once per interner
}

func (in *atomInterner) internSingleton(ix *physical.Index) atomRef {
	in.mu.Lock()
	defer in.mu.Unlock()
	if r, ok := in.singles[ix]; ok {
		return r
	}
	if in.singles == nil {
		in.singles = make(map[*physical.Index]atomRef)
	}
	r := in.refLocked(physical.NewConfiguration("atom", ix))
	in.singles[ix] = r
	return r
}

// fallback returns cfg, a configuration costed whole, with the id of its
// fingerprint.
//
//physdes:zeroalloc
func (in *atomInterner) fallback(cfg *physical.Configuration) atomRef {
	in.mu.RLock()
	id, ok := in.ids[cfg.Fingerprint()]
	in.mu.RUnlock()
	if ok {
		return atomRef{cfg: cfg, id: id}
	}
	return in.internFallback(cfg) //physdes:allocok intern on first sight: each distinct fallback fingerprint is numbered once per interner
}

func (in *atomInterner) internFallback(cfg *physical.Configuration) atomRef {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.refLocked(cfg)
}

// refLocked returns cfg with the id of its fingerprint, numbering a new
// fingerprint; callers hold mu for writing.
func (in *atomInterner) refLocked(cfg *physical.Configuration) atomRef {
	fp := cfg.Fingerprint()
	if in.ids == nil {
		in.ids = map[string]uint32{emptyAtom.cfg.Fingerprint(): emptyAtom.id}
	}
	id, ok := in.ids[fp]
	if !ok {
		id = uint32(len(in.ids))
		in.ids[fp] = id
	}
	return atomRef{cfg: cfg, id: id}
}

// projection returns the interned atom holding exactly ixs (grouped by
// table, as relevantStructures gathers them) and views (sorted by ID).
// The key is the ID sequence, not just the set: the cost model observes
// each table's index order (indexNLCost takes the first lead-matching
// index), and an atom keeps the order it was built in, so a hit must have
// every table's indexes in the same order.
//
//physdes:zeroalloc
func (in *atomInterner) projection(ixs []*physical.Index, views []*physical.View) atomRef {
	h := uint64(fnvOffset64)
	for _, ix := range ixs {
		h = fnvByte(fnvString(h, ix.ID()), '|')
	}
	for _, v := range views {
		h = fnvByte(fnvString(h, v.ID()), '|')
	}
	in.mu.RLock()
	r, ok := findProjection(in.proj[h], ixs, views)
	in.mu.RUnlock()
	if ok {
		return r
	}
	return in.internProjection(h, ixs, views) //physdes:allocok intern on first sight: each distinct projection atom is built once per interner
}

func (in *atomInterner) internProjection(h uint64, ixs []*physical.Index, views []*physical.View) atomRef {
	in.mu.Lock()
	defer in.mu.Unlock()
	if r, ok := findProjection(in.proj[h], ixs, views); ok {
		return r
	}
	structs := make([]physical.Structure, 0, len(ixs)+len(views))
	for _, ix := range ixs {
		structs = append(structs, ix)
	}
	for _, v := range views {
		structs = append(structs, v)
	}
	r := in.refLocked(physical.NewConfiguration("atom", structs...))
	if in.proj == nil {
		in.proj = make(map[uint64][]atomRef)
	}
	in.proj[h] = append(in.proj[h], r)
	return r
}

// findProjection returns the atom among candidates holding exactly ixs,
// with each table's indexes in the same order, and views.
func findProjection(candidates []atomRef, ixs []*physical.Index, views []*physical.View) (atomRef, bool) {
next:
	for _, r := range candidates {
		c := r.cfg
		cv := c.Views()
		if len(c.Indexes()) != len(ixs) || len(cv) != len(views) {
			continue
		}
		// ixs holds each table's indexes as one run.
		for i := 0; i < len(ixs); {
			run := c.IndexesOn(ixs[i].Table)
			if len(run) > len(ixs)-i {
				continue next
			}
			for _, ix := range run {
				if ix.ID() != ixs[i].ID() {
					continue next
				}
				i++
			}
			if len(run) == 0 {
				continue next
			}
		}
		for i := range views {
			if cv[i].ID() != views[i].ID() {
				continue next
			}
		}
		return r, true
	}
	return atomRef{}, false
}

// AtomicCache is the atom store: a sharded memo of (statement, atom) costs
// and the only sharing layer on the what-if probe path. It keys entries by
// statement pointer identity plus atom id (see cacheKey) over 64 shards,
// so concurrent probes contend on per-shard locks only. Atoms with one
// fingerprint share an id, and so an entry. It deduplicates concurrent
// misses on the same atom in flight, so each distinct atom pays exactly
// one inner call however the probes race.
//
// A probe whose projection exceeds the width bound is costed directly
// and memoized under the full configuration's id, so repeating it is free
// as well. Atom and fallback ids never collide: a stored atom holds at
// most maxWidth structures, a fallback configuration more, so their
// fingerprints differ.
type AtomicCache struct {
	inner    *Optimizer
	maxWidth int

	shards  [cacheShards]cacheShard
	entries atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	fallbacks atomic.Int64

	// intern holds the atoms decompositions produce, so the probe path
	// builds each distinct atom once per store, and numbers their
	// fingerprints.
	intern atomInterner

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

// Inner returns the wrapped optimizer (for call accounting).
func (ac *AtomicCache) Inner() *Optimizer { return ac.inner }

// Calls returns the inner optimizer's call count: only store misses reach
// it, so this is what the sharing bills.
func (ac *AtomicCache) Calls() int64 { return ac.inner.Calls() }

// SetMetrics exports the atom store's accounting on the registry:
// optimizer_atom_hits_total (lookups served from the store),
// optimizer_atoms_total (distinct (statement, atom) costings paid), and
// the optimizer_atom_cost_seconds histogram (time spent costing each paid
// atom). Atom reuse is hits / (hits + atoms). Passing nil detaches.
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

// Stats reports the store's accounting: lookups served from the store
// (hits), atom costings paid (misses), width-bound fallbacks costed
// directly, and the number of entries stored (atoms plus fallback
// configurations).
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

// Cost evaluates the statement under cfg as the minimum over its atoms'
// memoized costs: a row of one. Statements whose projection exceeds the
// width bound pay one direct what-if call on first sight instead.
//
//physdes:zeroalloc
func (ac *AtomicCache) Cost(a *sqlparse.Analysis, cfg *physical.Configuration) float64 {
	cfgs := [1]*physical.Configuration{cfg}
	var out [1]float64
	ac.CostRow(a, cfgs[:], out[:])
	return out[0]
}

// CostRow evaluates the statement under each cfgs[i] into out[i] (len(out)
// >= len(cfgs)): the same values, the same inner calls and the same
// Stats as len(cfgs) Cost calls in order. The row shares work its probes
// have in common — see rowMemo — and keeps that memo on its own stack, so
// concurrent rows never share it.
//
//physdes:zeroalloc
func (ac *AtomicCache) CostRow(a *sqlparse.Analysis, cfgs []*physical.Configuration, out []float64) {
	if len(cfgs) == 1 {
		// One configuration's atoms are distinct (a configuration holds
		// each structure once): a row of one has nothing to share, and
		// skips clearing the memo.
		ac.costRow(a, cfgs, out, nil)
		return
	}
	var memo rowMemo
	ac.costRow(a, cfgs, out, &memo)
}

// costRow is the one decomposition and lookup routine behind Cost and
// CostRow. A nil memo looks every atom up in the store.
//
//physdes:zeroalloc
func (ac *AtomicCache) costRow(a *sqlparse.Analysis, cfgs []*physical.Configuration, out []float64, memo *rowMemo) {
	var ixBuf [atomStackLen]*physical.Index
	var viewBuf [atomStackLen]*physical.View
	var atomBuf [atomStackLen + 1]atomRef
	m := ac.metrics.Load()
	var hits int64
	for i, cfg := range cfgs {
		atoms, fallback := decompose(a, cfg, ac.maxWidth, &ac.intern, memo, ixBuf[:], viewBuf[:], atomBuf[:])
		best := math.Inf(1)
		for _, atom := range atoms {
			var v float64
			if e := memo.atom(atom.id); e == nil {
				v = ac.memoCost(a, atom, fallback, m)
			} else if e.used {
				v = e.v
				hits++
			} else {
				v = ac.memoCost(a, atom, fallback, m)
				e.id, e.used, e.v = atom.id, true, v
			}
			if v < best {
				best = v
			}
		}
		out[i] = best
	}
	if hits > 0 {
		ac.hits.Add(hits)
		if m != nil {
			m.hits.Add(hits)
		}
	}
}

// rowBits sizes each of a row memo's tables at 1<<rowBits slots, and
// rowProbe bounds a lookup's linear probe. Once a table has no free slot
// within a key's probe, that key goes unmemoized: its lookups take the
// slow path, with the same values and the same accounting. A k=200 CRM
// row touches at most ~40 distinct atoms or indexes, ~5 on average.
const (
	rowBits  = 7
	rowProbe = 8
)

// rowMemo is the per-call memo of one CostRow, for one statement: each
// index's relevance verdict and singleton atom, and each atom id's cost
// as the store returned it. Open-addressed tables keyed by index pointer
// and atom id keep it on the caller's stack.
type rowMemo struct {
	rels  [1 << rowBits]relEntry
	atoms [1 << rowBits]atomEntry
}

// relEntry memoizes relevantIndex for ix (nil: free slot), and its
// singleton atom once interned (single.cfg nil before).
type relEntry struct {
	ix     *physical.Index
	keep   bool
	single atomRef
}

// atomEntry memoizes the stored cost of atom id (used false: free slot).
type atomEntry struct {
	id   uint32
	used bool
	v    float64
}

// rowHash spreads a key over the memo's slots (Fibonacci hashing).
//
//physdes:zeroalloc
func rowHash(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> (64 - rowBits))
}

// rel returns ix's entry, or the free slot where it belongs, or nil when
// the memo is nil or ix's probe has no room.
//
//physdes:zeroalloc
func (m *rowMemo) rel(ix *physical.Index) *relEntry {
	if m == nil {
		return nil
	}
	h := rowHash(uint64(uintptr(unsafe.Pointer(ix))) >> 3)
	for p := 0; p < rowProbe; p++ {
		e := &m.rels[(h+p)&(len(m.rels)-1)]
		if e.ix == ix || e.ix == nil {
			return e
		}
	}
	return nil
}

// singleton returns ix's singleton atom, interned once per row.
//
//physdes:zeroalloc
func (m *rowMemo) singleton(in *atomInterner, ix *physical.Index) atomRef {
	e := m.rel(ix)
	if e == nil || e.ix != ix {
		return in.singleton(ix)
	}
	if e.single.cfg == nil {
		e.single = in.singleton(ix)
	}
	return e.single
}

// atom returns id's entry, or the free slot where it belongs, or nil when
// the memo is nil or id's probe has no room.
//
//physdes:zeroalloc
func (m *rowMemo) atom(id uint32) *atomEntry {
	if m == nil {
		return nil
	}
	h := rowHash(uint64(id))
	for p := 0; p < rowProbe; p++ {
		e := &m.atoms[(h+p)&(len(m.atoms)-1)]
		if !e.used || e.id == id {
			return e
		}
	}
	return nil
}

// countMiss accounts one paid costing: a fallback, or an atom.
func (ac *AtomicCache) countMiss(m *atomMetrics, fallback bool) {
	if fallback {
		ac.fallbacks.Add(1)
		return
	}
	ac.misses.Add(1)
	if m != nil {
		m.atoms.Inc()
	}
}

// countHit accounts one lookup served from the store.
func (ac *AtomicCache) countHit(m *atomMetrics) {
	ac.hits.Add(1)
	if m != nil {
		m.hits.Inc()
	}
}

// memoCost returns the memoized cost of a under atom — an atom, or the
// full configuration of a width-bound fallback — consulting the inner
// optimizer on a miss. A concurrent miss on a key already being costed
// waits for that value and counts as a hit, exactly as the later call of
// a serial pair.
//
// m is the registry handles loaded for the row (nil: detached).
//
//physdes:zeroalloc
func (ac *AtomicCache) memoCost(a *sqlparse.Analysis, atom atomRef, fallback bool, m *atomMetrics) float64 {
	key := cacheKey{a: a, atom: atom.id}
	sh := ac.shard(key)
	v, ok := sh.get(key)
	if !ok {
		v, ok = sh.claim(key)
	}
	if ok {
		ac.countHit(m)
		return v
	}
	ac.countMiss(m, fallback)
	filled := false
	defer sh.releaseUnfilled(key, &filled)
	if m != nil && !fallback {
		sw := obs.NewStopwatch()
		v = ac.inner.Cost(a, atom.cfg)
		m.latency.Observe(sw.Elapsed().Seconds())
	} else {
		v = ac.inner.Cost(a, atom.cfg)
	}
	if sh.fill(key, v) {
		ac.entries.Add(1)
	}
	filled = true
	return v
}
