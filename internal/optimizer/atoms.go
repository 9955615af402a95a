package optimizer

import (
	"math"
	"sync"
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
//  1. Every configuration read is mediated by cfg's indexes on a table t
//     the statement references, or by cfg.Views() filtered to views whose
//     tables are a subset of the statement's tables (SELECT) or that
//     contain the modified table (DML). Projecting the configuration onto
//     those *relevant* structures therefore cannot change the cost — the
//     evaluator never observes the dropped structures. Every arm takes a
//     minimum over the indexes it can use (indexNLCost the cheapest
//     lead-matching one), so the cost depends on the projection's
//     structure set, not on the order its indexes were listed in.
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
// Because the cost reads only the structure set, atoms are keyed by it.
// The store's interner gives every structure a dense id on first sight,
// and an atom is interned under the sorted ids of its structures (see
// atomInterner): the probe path hashes and compares small integers, never
// ID or fingerprint strings, and building a new atom allocates no map and
// no fingerprint.
//
// A Delta Sampling row costs one statement under every alive
// configuration, and those configurations share most of their atoms: the
// empty atom appears in every singleton decomposition, and a candidate
// index in many configurations. CostRow therefore costs a whole row with a
// per-call memo (rowMemo): each structure's relevance to the statement and
// its dense id are looked up once per row, each singleton atom interned
// once, and each distinct atom id looked up in the store once.
// Later occurrences count as store hits, exactly as the later probes of a
// pair-by-pair row would, so values and accounting are identical to
// len(cfgs) Cost calls.

// emptyAtom is the shared zero-structure atom: it contributes the heap-scan
// baseline to every singleton decomposition. Every interner gives it id 0.
var emptyAtom = atomRef{cfg: physical.NewConfiguration("atom")}

// atomRef is an interned atom and its id: the number its interner gave the
// atom's structure set, which keys the atom store.
type atomRef struct {
	cfg *physical.Configuration
	id  uint32
}

// atomStackLen is the number of relevant indexes the probe path's stack
// scratch holds; a wider projection sizes heap scratch once per call.
const atomStackLen = 32

// decompose is the one decomposition routine behind AtomicCache.CostRow.
// It projects cfg onto the structures a can read, gathered into ixBuf and
// viewBuf, and returns in atomBuf the atoms whose cost minimum reproduces
// the direct cost exactly (TestAtomicCostEquivalence pins this bit for
// bit): the empty atom plus one
// singleton per relevant index for a single-table SELECT with no relevant
// views, else the one projection atom, however wide. Atoms and ids come
// from in, keyed by the sorted dense ids of their structures, which
// are gathered into idBuf. memo, when non-nil, is the row's memo of
// structure relevance, dense ids and singleton atoms for statement a.
// Scratch slices that are too small are replaced by heap slices.
//
//physdes:zeroalloc
func decompose(a *sqlparse.Analysis, cfg *physical.Configuration, in *atomInterner, memo *rowMemo, ixBuf []*physical.Index, viewBuf []*physical.View, idBuf []uint32, atomBuf []atomRef) []atomRef {
	ixs, views := relevantStructures(a, cfg, memo, ixBuf, viewBuf)
	if a.Kind == sqlparse.KindSelect && len(a.Tables) == 1 && len(views) == 0 {
		atoms := scratch(atomBuf, len(ixs)+1)
		atoms = put(atoms, emptyAtom)
		for _, ix := range ixs {
			atoms = put(atoms, memo.singleton(in, ix))
		}
		return atoms
	}
	ids := structureIDs(in, memo, idBuf, ixs, views)
	return put(scratch(atomBuf, 1), in.projection(ids, ixs, views))
}

// structureIDs gathers the dense ids of ixs and views into buf (heap
// scratch when too small), sorted: the key of their structure set.
//
//physdes:zeroalloc
func structureIDs(in *atomInterner, memo *rowMemo, buf []uint32, ixs []*physical.Index, views []*physical.View) []uint32 {
	ids := scratch(buf, len(ixs)+len(views))
	for _, ix := range ixs {
		ids = put(ids, memo.indexID(in, ix))
	}
	for _, v := range views {
		ids = put(ids, memo.viewID(in, v))
	}
	return sortIDs(ids)
}

// sortIDs sorts a structure-id set in place (insertion sort: sets are a
// handful of ids) and returns it.
//
//physdes:zeroalloc
func sortIDs(ids []uint32) []uint32 {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// relevantStructures projects cfg onto the structures the cost model can
// read while evaluating a, gathering them into the scratch slices. The
// filter is conservative: it may keep an index no plan arm ends up using,
// but it must never drop one any arm could read (FuzzAtomDecompose hunts
// for violations). The verdicts depend only on the statement and the
// structure, so memo, when non-nil, decides each structure once per row.
//
//physdes:zeroalloc
func relevantStructures(a *sqlparse.Analysis, cfg *physical.Configuration, memo *rowMemo, ixBuf []*physical.Index, viewBuf []*physical.View) ([]*physical.Index, []*physical.View) {
	ixs := scratch(ixBuf, len(cfg.Indexes()))
	views := scratch(viewBuf, len(cfg.Views()))
	// Only indexes on the statement's tables can be read. a.Tables and the
	// configuration's runs are both in table order.
	b := shapeBinding(a)
	runs := cfg.ByTable()
	r := 0
	for s, name := range a.Tables {
		for r < len(runs) && runs[r].Table < name {
			r++
		}
		if r == len(runs) {
			break
		}
		if runs[r].Table != name {
			continue
		}
		for _, ix := range runs[r].Indexes {
			if memo.indexRelevant(a, b, s, ix) {
				ixs = put(ixs, ix)
			}
		}
		r++
	}
	for _, v := range cfg.Views() {
		if memo.viewRelevant(a, v) {
			views = put(views, v)
		}
	}
	return ixs, views
}

// indexRelevant reports whether the cost model can read ix, an index on
// a.Tables[s], while evaluating a; b is a's shape binding, if any. DML:
// the locate part seeks the modified table (bestAccess over all its
// indexes) and the write part maintains every index on it; any other
// table of the statement keeps what relevantIndex keeps.
//
//physdes:zeroalloc
func indexRelevant(a *sqlparse.Analysis, b *binding, s int, ix *physical.Index) bool {
	if a.Kind != sqlparse.KindSelect && ix.Table == a.ModifiedTable {
		return true
	}
	if b != nil {
		return relevantIndex(a, ix.Table, b.refReads(a, s), ix)
	}
	return relevantIndex(a, ix.Table, refReads(a, ix.Table), ix)
}

// viewRelevant reports whether the cost model can read v while evaluating
// a: viewMatches (plain or aggregate) requires every view table to be a
// query table, and DML also maintains every view containing the modified
// table.
//
//physdes:zeroalloc
func viewRelevant(a *sqlparse.Analysis, v *physical.View) bool {
	if a.Kind != sqlparse.KindSelect && v.HasTable(a.ModifiedTable) {
		return true
	}
	return tablesSubset(v.Tables, a.Tables)
}

// relevantIndex reports whether some arm of the SELECT cost model can read
// ix, an index on table: a sargable lead column (IndexSeek), a covering
// key+include set (IndexScan), a lead column equal to one of the table's
// join columns (merge-join and index-nested-loop arms — ALL such indexes
// are kept because indexNLCost takes the cheapest of them), or a lead
// column equal to the first ORDER BY column (the sort-elimination arm).
// refs is what the statement reads of table.
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

// atomInterner interns atoms so each is built once per store, and numbers
// them. It is not safe for concurrent use: the atom store calls it under
// its lock.
//
// It first gives every structure a dense id on first sight: by ID string
// once, then by pointer, so distinct *Index values with one ID share an
// id. An atom is keyed by the sorted set of its structures' ids; the
// first one interned with a set gives it the next atom id, and every later
// one with that set gets the same id. The atom store keys by atom id, so
// it shares entries across distinct *Configuration values and across
// projections listing one structure set in different orders, without
// building, hashing or comparing a fingerprint string. Ids are per interner, so they depend
// only on the order the store saw its structures in.
type atomInterner struct {
	ixIDs   map[*physical.Index]uint32
	viewIDs map[*physical.View]uint32
	byName  map[string]uint32 // structure ID → dense id

	// singles[sid] is the singleton atom of index sid (cfg nil: not built).
	singles []atomRef
	// sets numbers the interned structure-id sets: set i is atom i+1's
	// (the empty atom, id 0, has none), and cfgs[i] is that atom.
	sets idSets
	cfgs []*physical.Configuration
}

// idSets numbers distinct id sequences densely, in first-seen order: the
// interner's structure-id sets and the plan table's atom lists. The
// sequences sit back to back in arena, and slots, an open-addressed table
// at most half full, finds one by its setHash (1 + its number; 0: empty).
type idSets struct {
	seqs  []idSeq
	slots []int32
	arena []uint32
}

// idSeq is one numbered sequence: arena[off:off+n].
type idSeq struct {
	off, n uint32
}

// setHash mixes an id sequence into a table position.
//
//physdes:zeroalloc
func setHash(ids []uint32) uint64 {
	h := uint64(len(ids))
	for _, id := range ids {
		h = (h ^ uint64(id)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// find returns the number of the sequence holding exactly ids, if any.
//
//physdes:zeroalloc
func (t *idSets) find(ids []uint32) (int32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	s := t.slots[t.slot(ids)]
	return s - 1, s != 0
}

// slot returns the position in slots of ids: the slot holding it, or the
// empty slot where it belongs.
//
//physdes:zeroalloc
func (t *idSets) slot(ids []uint32) int {
	mask := len(t.slots) - 1
	for i := int(setHash(ids)) & mask; ; i = (i + 1) & mask {
		if s := t.slots[i]; s == 0 || equalIDs(t.at(s-1), ids) {
			return i
		}
	}
}

// add numbers ids, which find does not find, and returns its number.
func (t *idSets) add(ids []uint32) int32 {
	if len(t.slots) == 0 {
		t.seqs = make([]idSeq, 0, planHint)
		t.arena = make([]uint32, 0, 4*planHint)
	}
	if 2*(len(t.seqs)+1) > len(t.slots) {
		t.rehash(max(2*len(t.slots), 2*planHint))
	}
	n := int32(len(t.seqs))
	t.seqs = appendDoubling(t.seqs, idSeq{off: uint32(len(t.arena)), n: uint32(len(ids))})
	t.arena = appendDoubling(t.arena, ids...)
	t.slots[t.slot(ids)] = n + 1
	return n
}

// rehash moves the table to size slots, a power of two.
func (t *idSets) rehash(size int) {
	t.slots = make([]int32, size)
	for n := range t.seqs {
		t.slots[t.slot(t.at(int32(n)))] = int32(n) + 1
	}
}

// appendDoubling appends xs to s, doubling s's capacity when full: append
// grows a large slice by about a quarter, so an interning table grown by
// append reallocates far more often.
func appendDoubling[T any](s []T, xs ...T) []T {
	if len(s)+len(xs) > cap(s) {
		t := make([]T, len(s), max(2*cap(s), len(s)+len(xs)))
		copy(t, s)
		s = t
	}
	return append(s, xs...)
}

// at returns sequence n.
//
//physdes:zeroalloc
func (t *idSets) at(n int32) []uint32 {
	s := t.seqs[n]
	return t.arena[s.off : s.off+s.n : s.off+s.n]
}

// equalIDs reports whether two id sequences are equal.
//
//physdes:zeroalloc
func equalIDs(x, y []uint32) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// indexID returns ix's dense structure id.
//
//physdes:zeroalloc
func (in *atomInterner) indexID(ix *physical.Index) uint32 {
	return structureID(in, &in.ixIDs, ix, ix.ID())
}

// viewID returns v's dense structure id.
//
//physdes:zeroalloc
func (in *atomInterner) viewID(v *physical.View) uint32 {
	return structureID(in, &in.viewIDs, v, v.ID())
}

// structureID returns the dense id of structure s, whose ID is name,
// from ids (the interner's map for s's kind), numbering s on first
// sight.
//
//physdes:zeroalloc
func structureID[S comparable](in *atomInterner, ids *map[S]uint32, s S, name string) uint32 {
	if id, ok := (*ids)[s]; ok {
		return id
	}
	if *ids == nil {
		*ids = make(map[S]uint32) //physdes:allocok intern on first sight: each structure pointer is numbered once per interner
	}
	if in.byName == nil {
		in.byName = make(map[string]uint32) //physdes:allocok intern on first sight: each structure pointer is numbered once per interner
	}
	id, ok := in.byName[name]
	if !ok {
		id = uint32(len(in.byName))
		in.byName[name] = id //physdes:allocok intern on first sight: each structure ID is numbered once per interner
	}
	(*ids)[s] = id //physdes:allocok intern on first sight: each structure pointer is numbered once per interner
	return id
}

// singleton returns the interned one-index atom of ix.
//
//physdes:zeroalloc
func (in *atomInterner) singleton(ix *physical.Index) atomRef {
	sid := in.indexID(ix)
	if int(sid) < len(in.singles) && in.singles[sid].cfg != nil {
		return in.singles[sid]
	}
	for int(sid) >= len(in.singles) {
		in.singles = append(in.singles, atomRef{}) //physdes:allocok intern on first sight: each index's singleton atom is built once per interner
	}
	ids := [1]uint32{sid}
	r, ok := in.lookup(ids[:])
	if !ok {
		r = in.add(ids[:], physical.NewConfiguration("atom", ix)) //physdes:allocok intern on first sight: each index's singleton atom is built once per interner
	}
	in.singles[sid] = r
	return r
}

// projection returns the interned atom holding exactly ixs and views,
// whose sorted dense ids are ids. The cost model reads only the structure
// set, so any order of one set is served by the atom first built for it.
//
//physdes:zeroalloc
func (in *atomInterner) projection(ids []uint32, ixs []*physical.Index, views []*physical.View) atomRef {
	if len(ids) == 0 {
		return emptyAtom
	}
	if r, ok := in.lookup(ids); ok {
		return r
	}
	return in.add(ids, projectionAtom(ixs, views)) //physdes:allocok intern on first sight: each distinct projection atom is built once per interner
}

// projectionAtom builds the atom holding exactly ixs and views.
func projectionAtom(ixs []*physical.Index, views []*physical.View) *physical.Configuration {
	var buf [atomStackLen]physical.Structure
	structs := scratch(buf[:], len(ixs)+len(views))
	for _, ix := range ixs {
		structs = append(structs, ix)
	}
	for _, v := range views {
		structs = append(structs, v)
	}
	return physical.NewConfiguration("atom", structs...)
}

// lookup returns the atom of the interned id set ids, if any.
//
//physdes:zeroalloc
func (in *atomInterner) lookup(ids []uint32) (atomRef, bool) {
	i, ok := in.sets.find(ids)
	if !ok {
		return atomRef{}, false
	}
	return atomRef{cfg: in.cfgs[i], id: uint32(i) + 1}, true
}

// add numbers the id set ids, which lookup does not find, under the next
// atom id, with cfg its atom.
func (in *atomInterner) add(ids []uint32, cfg *physical.Configuration) atomRef {
	i := in.sets.add(ids)
	if in.cfgs == nil {
		in.cfgs = make([]*physical.Configuration, 0, planHint)
	}
	in.cfgs = appendDoubling(in.cfgs, cfg)
	return atomRef{cfg: cfg, id: uint32(i) + 1}
}

// atom returns the interned atom numbered id.
//
//physdes:zeroalloc
func (in *atomInterner) atom(id uint32) *physical.Configuration {
	if id == emptyAtom.id {
		return emptyAtom.cfg
	}
	return in.cfgs[id-1]
}

// AtomicCache is the atom store: a memo of (statement, atom) costs and
// the only sharing layer on the what-if probe path. It keys entries by
// statement pointer identity plus atom id (see cacheKey); atoms with one
// structure set share an id, and so an entry. One lock, taken once per
// CostRow, guards the memo, the interner, the plan table and the
// accounting, so the store is safe for concurrent use and each distinct
// atom pays exactly one inner call however concurrent callers interleave.
//
// The plan table remembers what decompose returned, because that depends
// only on the statement's shape and the configuration: statements of one
// shape share a binding (shapeBinding), which differ only in their
// literals, and the relevance filter reads no literal but a LIKE pattern.
// The store numbers each shape and each configuration on first sight;
// rows[shape][cfg] then names the shape's plan under cfg, an atom list
// interned in plans, so a probe whose (shape, configuration) pair the
// store has decomposed before reads its atoms by index. Unbound
// statements and shapes with a LIKE predicate decompose on every probe.
type AtomicCache struct {
	inner *Optimizer

	mu    sync.Mutex
	table map[cacheKey]float64
	// intern numbers the structures and atoms decompositions produce, so
	// the probe path builds each distinct atom once per store.
	intern atomInterner

	// shapes numbers the shapes the store has seen (-1: decompose every
	// probe), cfgNums the configurations. rows[shape][cfg] is 1 + the
	// number in plans of the shape's atom list under cfg, or 0 while
	// unknown; rows are carved from slab.
	shapes  map[*binding]int32
	cfgNums map[*physical.Configuration]uint32
	rows    [][]uint16
	plans   idSets
	slab    []uint16

	hits, misses int64
	// hitCounter and atomCounter are SetMetrics' registry handles (nil:
	// detached).
	hitCounter, atomCounter *obs.Counter
}

// cacheKey is comparable: two keys are equal iff they hold the same
// *sqlparse.Analysis pointer AND the same atom id. Analyses are immutable
// once built by the workload package, so pointer identity is a sound
// statement key within one process. The invariant cuts both ways — two
// *distinct* parses of the same SQL text are distinct keys and
// intentionally do not share entries (see TestCacheKeyPointerIdentity) —
// while two distinct *Configuration values with one structure set share
// an id (see atomInterner), and so an entry.
type cacheKey struct {
	a    *sqlparse.Analysis
	atom uint32
}

// NewAtomicCache builds an atom store over the optimizer.
func NewAtomicCache(inner *Optimizer) *AtomicCache {
	return &AtomicCache{inner: inner, table: make(map[cacheKey]float64)}
}

// Calls returns the inner optimizer calls this store has made: only its
// misses reach the optimizer, so this is what the sharing bills. Other
// callers of the same optimizer do not count.
func (ac *AtomicCache) Calls() int64 {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.misses
}

// SetMetrics exports the atom store's accounting on the registry:
// optimizer_atom_hits_total (lookups served from the store) and
// optimizer_atoms_total (distinct (statement, atom) costings paid). Atom
// reuse is hits / (hits + atoms). The time a paid atom takes is the inner
// optimizer's to observe (optimizer_cost_seconds). Passing nil detaches.
func (ac *AtomicCache) SetMetrics(r *obs.Registry) {
	var hits, atoms *obs.Counter
	if r != nil {
		hits, atoms = r.Counter("optimizer_atom_hits_total"), r.Counter("optimizer_atoms_total")
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	ac.hitCounter, ac.atomCounter = hits, atoms
}

// Stats reports the store's accounting: lookups served from the store
// (hits), atom costings paid (misses), and the number of entries stored.
func (ac *AtomicCache) Stats() (hits, misses int64, entries int) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.hits, ac.misses, len(ac.table)
}

// Cost evaluates the statement under cfg as the minimum over its atoms'
// memoized costs: a row of one.
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
// have in common — see rowMemo — and keeps that memo on its own stack.
//
//physdes:zeroalloc
func (ac *AtomicCache) CostRow(a *sqlparse.Analysis, cfgs []*physical.Configuration, out []float64) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
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

// decomposeBuf is the stack scratch of one row's decompositions: ids
// receives a decomposition's atom ids.
type decomposeBuf struct {
	ixs   [atomStackLen]*physical.Index
	views [atomStackLen]*physical.View
	sids  [atomStackLen]uint32
	atoms [atomStackLen + 1]atomRef
	ids   [atomStackLen + 1]uint32
}

// decompose returns the ids of the atoms decompose splits a under cfg
// into, in decompose's order.
//
//physdes:zeroalloc
func (buf *decomposeBuf) decompose(a *sqlparse.Analysis, cfg *physical.Configuration, in *atomInterner, memo *rowMemo) []uint32 {
	atoms := decompose(a, cfg, in, memo, buf.ixs[:], buf.views[:], buf.sids[:], buf.atoms[:])
	ids := scratch(buf.ids[:], len(atoms))
	for _, atom := range atoms {
		ids = put(ids, atom.id)
	}
	return ids
}

// costRow is the one decomposition and lookup routine behind Cost and
// CostRow; callers hold mu. A nil memo looks every atom up in the store.
//
//physdes:zeroalloc
func (ac *AtomicCache) costRow(a *sqlparse.Analysis, cfgs []*physical.Configuration, out []float64, memo *rowMemo) {
	var buf decomposeBuf
	var numBuf [rowStackLen]uint32
	hits := ac.hits
	shape := ac.shape(a)
	var row []uint16
	var nums []uint32
	if shape >= 0 {
		row, nums = ac.number(shape, cfgs, numBuf[:])
	}
	for i, cfg := range cfgs {
		var atoms []uint32
		if shape < 0 {
			atoms = buf.decompose(a, cfg, &ac.intern, memo)
		} else if p := row[nums[i]]; p != 0 {
			atoms = ac.plans.at(int32(p - 1))
		} else {
			atoms = buf.decompose(a, cfg, &ac.intern, memo)
			row[nums[i]] = ac.planNum(atoms)
		}
		best := math.Inf(1)
		for _, id := range atoms {
			var v float64
			if e := memo.atom(id); e == nil {
				v = ac.memoCost(a, id)
			} else if e.used {
				v = e.v
				ac.hits++
			} else {
				v = ac.memoCost(a, id)
				e.id, e.used, e.v = id, true, v
			}
			if v < best {
				best = v
			}
		}
		out[i] = best
	}
	ac.hitCounter.Add(ac.hits - hits)
}

// rowStackLen is how many configurations' plan-table numbers costRow
// keeps on its stack; a longer row numbers them into heap scratch.
const rowStackLen = 256

// shape returns the plan table's number for a's shape, numbering it on
// first sight, or -1 when a's atoms must be decomposed on every probe: a
// has no shape binding, or a LIKE predicate, whose pattern findSargable
// reads (a prefix pattern is sargable, a contains pattern is not).
//
//physdes:zeroalloc
func (ac *AtomicCache) shape(a *sqlparse.Analysis) int32 {
	b := shapeBinding(a)
	if b == nil {
		return -1
	}
	if s, ok := ac.shapes[b]; ok {
		return s
	}
	s := int32(-1)
	if ac.shapes == nil {
		ac.shapes = make(map[*binding]int32, planHint) //physdes:allocok plan table: each shape is numbered once per store
		ac.rows = make([][]uint16, 0, planHint)        //physdes:allocok plan table: a row per statement shape, added on the shape's first sight
	}
	if !hasLike(a) {
		s = int32(len(ac.rows))
		ac.rows = append(ac.rows, nil) //physdes:allocok plan table: a row per statement shape, added on the shape's first sight
	}
	ac.shapes[b] = s //physdes:allocok plan table: each shape is numbered once per store
	return s
}

// hasLike reports whether a has a LIKE predicate.
//
//physdes:zeroalloc
func hasLike(a *sqlparse.Analysis) bool {
	for i := range a.Preds {
		if a.Preds[i].Kind == sqlparse.PredLike {
			return true
		}
	}
	return false
}

// number returns shape's plan-table row and, in buf (heap scratch when
// too small), the number of each of cfgs, numbering those the store has
// not seen. The row is first widened to every configuration numbered so
// far, so a shape met before all of a Select's configurations is widened
// once more, not once per configuration.
//
//physdes:zeroalloc
func (ac *AtomicCache) number(shape int32, cfgs []*physical.Configuration, buf []uint32) ([]uint16, []uint32) {
	nums := scratch(buf, len(cfgs))
	for _, cfg := range cfgs {
		nums = put(nums, ac.cfgNum(cfg, len(cfgs)))
	}
	row := ac.rows[shape]
	if len(row) < len(ac.cfgNums) {
		row = ac.widen(shape, len(ac.cfgNums))
	}
	return row, nums
}

// planNum returns the plan-table entry of the atom list atoms: 1 + its
// number in plans, interning it on first sight, or 0 (decompose again)
// once the entries' range is spent.
//
//physdes:zeroalloc
func (ac *AtomicCache) planNum(atoms []uint32) uint16 {
	p, ok := ac.plans.find(atoms)
	if !ok {
		p = ac.plans.add(atoms) //physdes:allocok plan table: each distinct atom list is interned once per store
	}
	if p >= math.MaxUint16 {
		return 0
	}
	return uint16(p) + 1
}

// cfgNum returns cfg's number in the plan table, numbering it on first
// sight; hint sizes the numbering on its first use.
//
//physdes:zeroalloc
func (ac *AtomicCache) cfgNum(cfg *physical.Configuration, hint int) uint32 {
	if c, ok := ac.cfgNums[cfg]; ok {
		return c
	}
	if ac.cfgNums == nil {
		ac.cfgNums = make(map[*physical.Configuration]uint32, hint) //physdes:allocok plan table: each configuration is numbered once per store
	}
	c := uint32(len(ac.cfgNums))
	ac.cfgNums[cfg] = c //physdes:allocok plan table: each configuration is numbered once per store
	return c
}

// planHint is the number of shapes and plans the plan table makes room
// for on first use, and slabRows the number of rows of the current width
// a slab chunk holds.
const (
	planHint = 64
	slabRows = 16
)

// widen moves shape's row to n entries carved from the slab, keeping its
// plans, and returns it. A chunk's unused tail is abandoned when a row
// does not fit it, so no chunk is ever copied or grown.
//
//physdes:zeroalloc
func (ac *AtomicCache) widen(shape int32, n int) []uint16 {
	if n > len(ac.slab) {
		ac.slab = make([]uint16, n*slabRows) //physdes:allocok plan table: one slab chunk per slabRows rows
	}
	row := ac.slab[:n:n]
	ac.slab = ac.slab[n:]
	copy(row, ac.rows[shape])
	ac.rows[shape] = row
	return row
}

// rowBits sizes each of a row memo's structure and atom tables at
// 1<<rowBits slots, and rowProbe bounds a lookup's linear probe. Once a table has no free slot within a key's
// probe, that key goes unmemoized: its lookups take the slow path, with
// the same values and the same accounting. A k=200 CRM row touches at
// most ~40 distinct atoms or indexes, ~5 on average.
const (
	rowBits  = 7
	rowProbe = 8
)

// rowMemo is the per-call memo of one CostRow, for one statement: each
// structure's relevance verdict and dense id, each index's singleton
// atom, and each atom id's cost as the store returned it. Open-addressed
// tables keyed by structure pointer and atom id keep it on the caller's
// stack.
type rowMemo struct {
	structs [1 << rowBits]structEntry
	atoms   [1 << rowBits]atomEntry
}

// structEntry memoizes one structure's relevance verdict (s nil: free
// slot), its dense id once looked up (hasID), and an index's singleton
// atom once interned (single.cfg nil before).
type structEntry struct {
	s      unsafe.Pointer
	keep   bool
	hasID  bool
	id     uint32
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

// entry returns the entry of the structure at s (an *Index or *View), or
// the free slot where it belongs, or nil when the memo is nil or s's
// probe has no room.
//
//physdes:zeroalloc
func (m *rowMemo) entry(s unsafe.Pointer) *structEntry {
	if m == nil {
		return nil
	}
	h := rowHash(uint64(uintptr(s)) >> 3)
	for p := 0; p < rowProbe; p++ {
		e := &m.structs[(h+p)&(len(m.structs)-1)]
		if e.s == s || e.s == nil {
			return e
		}
	}
	return nil
}

// known returns the entry of the structure at s once its relevance is
// memoized, else nil.
//
//physdes:zeroalloc
func (m *rowMemo) known(s unsafe.Pointer) *structEntry {
	if e := m.entry(s); e != nil && e.s == s {
		return e
	}
	return nil
}

// remember records keep as the verdict for the structure at s in e, the
// slot entry returned (nil: unmemoized).
//
//physdes:zeroalloc
func (e *structEntry) remember(s unsafe.Pointer, keep bool) bool {
	if e != nil {
		e.s, e.keep = s, keep
	}
	return keep
}

// indexRelevant is indexRelevant(a, b, s, ix), decided once per row.
//
//physdes:zeroalloc
func (m *rowMemo) indexRelevant(a *sqlparse.Analysis, b *binding, s int, ix *physical.Index) bool {
	e := m.entry(unsafe.Pointer(ix))
	if e != nil && e.s != nil {
		return e.keep
	}
	return e.remember(unsafe.Pointer(ix), indexRelevant(a, b, s, ix))
}

// viewRelevant is viewRelevant(a, v), decided once per row.
//
//physdes:zeroalloc
func (m *rowMemo) viewRelevant(a *sqlparse.Analysis, v *physical.View) bool {
	e := m.entry(unsafe.Pointer(v))
	if e != nil && e.s != nil {
		return e.keep
	}
	return e.remember(unsafe.Pointer(v), viewRelevant(a, v))
}

// indexID returns ix's dense id, looked up once per row. Only a structure
// whose relevance the row decided is memoized.
//
//physdes:zeroalloc
func (m *rowMemo) indexID(in *atomInterner, ix *physical.Index) uint32 {
	e := m.known(unsafe.Pointer(ix))
	if e == nil {
		return in.indexID(ix)
	}
	if !e.hasID {
		e.id, e.hasID = in.indexID(ix), true
	}
	return e.id
}

// viewID returns v's dense id, looked up once per row.
//
//physdes:zeroalloc
func (m *rowMemo) viewID(in *atomInterner, v *physical.View) uint32 {
	e := m.known(unsafe.Pointer(v))
	if e == nil {
		return in.viewID(v)
	}
	if !e.hasID {
		e.id, e.hasID = in.viewID(v), true
	}
	return e.id
}

// singleton returns ix's singleton atom, interned once per row.
//
//physdes:zeroalloc
func (m *rowMemo) singleton(in *atomInterner, ix *physical.Index) atomRef {
	e := m.known(unsafe.Pointer(ix))
	if e == nil {
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

// memoCost returns the memoized cost of a under atom id, consulting the
// inner optimizer on a miss; callers hold mu.
//
//physdes:zeroalloc
func (ac *AtomicCache) memoCost(a *sqlparse.Analysis, id uint32) float64 {
	key := cacheKey{a: a, atom: id}
	if v, ok := ac.table[key]; ok {
		ac.hits++
		return v
	}
	ac.misses++
	ac.atomCounter.Inc()
	v := ac.inner.Cost(a, ac.intern.atom(id))
	ac.table[key] = v //physdes:allocok the memo grows once per distinct (statement, atom): the store's steady state is hits
	return v
}
