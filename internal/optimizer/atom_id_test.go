package optimizer

import (
	"reflect"
	"testing"

	"physdes/internal/physical"
)

// project interns the projection atom holding ixs and views, as
// decompose does: by the sorted dense ids of its structures.
func project(in *atomInterner, ixs []*physical.Index, views []*physical.View) atomRef {
	return in.projection(structureIDs(in, nil, nil, ixs, views), ixs, views)
}

// TestAtomIDSharedByFingerprint pins atom numbering to structure sets:
// distinct *Index values with one ID share a dense id, hence one singleton
// atom; projections listing one structure set in different orders are one
// atom. The empty projection is the empty atom.
func TestAtomIDSharedByFingerprint(t *testing.T) {
	var in atomInterner
	a1 := in.singleton(physical.NewIndex("lineitem", []string{"l_orderkey"}))
	a2 := in.singleton(physical.NewIndex("lineitem", []string{"l_orderkey"}))
	if a1 != a2 {
		t.Errorf("equal-ID singletons: %+v and %+v, want one atom", a1, a2)
	}

	narrow := physical.NewIndex("lineitem", []string{"l_orderkey"})
	covering := physical.NewIndex("lineitem", []string{"l_orderkey"}, "l_quantity")
	p1 := project(&in, []*physical.Index{narrow, covering}, nil)
	p2 := project(&in, []*physical.Index{covering, narrow}, nil)
	if p1 != p2 {
		t.Errorf("same-set, different-order projections: %+v and %+v, want one atom", p1, p2)
	}
	if p1.cfg.Fingerprint() != physical.NewConfiguration("x", narrow, covering).Fingerprint() {
		t.Errorf("projection atom holds %q", p1.cfg.Fingerprint())
	}
	if again := project(&in, []*physical.Index{narrow, covering}, nil); again != p1 {
		t.Errorf("re-interning a projection returned %+v, want %+v", again, p1)
	}
	if e := project(&in, nil, nil); e != emptyAtom {
		t.Errorf("empty projection %+v, want the empty atom %+v", e, emptyAtom)
	}
}

// TestAtomIDDistinctFingerprints pins the other direction: distinct
// fingerprints get distinct ids.
func TestAtomIDDistinctFingerprints(t *testing.T) {
	var in atomInterner
	ix := physical.NewIndex
	indexes := []*physical.Index{
		ix("lineitem", []string{"l_orderkey"}),
		ix("lineitem", []string{"l_shipdate"}),
		ix("lineitem", []string{"l_orderkey"}, "l_quantity"),
		ix("orders", []string{"o_orderkey"}),
	}
	byID := map[uint32]string{emptyAtom.id: emptyAtom.cfg.Fingerprint()}
	record := func(r atomRef) {
		t.Helper()
		if fp, ok := byID[r.id]; ok && fp != r.cfg.Fingerprint() {
			t.Errorf("id %d names both %q and %q", r.id, fp, r.cfg.Fingerprint())
		}
		byID[r.id] = r.cfg.Fingerprint()
	}
	for _, x := range indexes {
		record(in.singleton(x))
	}
	record(project(&in, indexes[:2], nil))
	record(project(&in, indexes[1:], nil))
	record(project(&in, indexes[2:], nil))
	// A one-index projection has its singleton's structure set, hence its id.
	if p, s := project(&in, indexes[3:], nil), in.singleton(indexes[3]); p.id != s.id {
		t.Errorf("one-index projection id %d, want its singleton's %d", p.id, s.id)
	}
	if atoms := len(byID); atoms != 8 {
		t.Fatalf("%d distinct atom ids, want 8 (empty, 4 singletons, 3 projections)", atoms)
	}
}

// TestEqualIDStructuresShareAtom pins dense ids to structure IDs: two
// configurations built from distinct *Index values with equal IDs give
// those values one dense id, decompose into the same atoms, and cost a
// statement with one set of inner calls — the second configuration is
// served from the store. It covers a projection atom (a join) and
// singleton atoms (a single-table SELECT).
func TestEqualIDStructuresShareAtom(t *testing.T) {
	build := func(name string) (*physical.Index, *physical.Configuration) {
		key := physical.NewIndex("lineitem", []string{"l_orderkey"}, "l_quantity")
		return key, physical.NewConfiguration(name, key,
			physical.NewIndex("orders", []string{"o_orderdate"}),
			physical.NewIndex("lineitem", []string{"l_shipdate"}))
	}
	for _, tc := range []struct {
		name, sql string
		atoms     int
	}{
		{"projection", "SELECT o_orderdate, l_quantity FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate = 9", 1},
		{"singletons", "SELECT l_quantity FROM lineitem WHERE l_orderkey = 7 AND l_shipdate < 30", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := analyze(t, tc.sql)
			ix1, cfg1 := build("a")
			ix2, cfg2 := build("b")
			if ix1 == ix2 || ix1.ID() != ix2.ID() {
				t.Fatal("fixture needs distinct index values with one ID")
			}
			c := NewAtomicCache(New(testCat))
			if id1, id2 := c.intern.indexID(ix1), c.intern.indexID(ix2); id1 != id2 {
				t.Errorf("equal-ID indexes got dense ids %d and %d", id1, id2)
			}
			atoms1 := decompose(a, cfg1, &c.intern, nil, nil, nil, nil, nil)
			atoms2 := decompose(a, cfg2, &c.intern, nil, nil, nil, nil, nil)
			if len(atoms1) != tc.atoms || !reflect.DeepEqual(atoms1, atoms2) {
				t.Fatalf("decompositions differ: %+v vs %+v, want %d shared atoms", atoms1, atoms2, tc.atoms)
			}
			want := New(testCat).Cost(a, cfg1)
			if got := c.Cost(a, cfg1); got != want {
				t.Fatalf("atomic cost %v, direct %v", got, want)
			}
			if calls := c.Calls(); calls != int64(tc.atoms) {
				t.Errorf("first configuration paid %d inner calls, want %d", calls, tc.atoms)
			}
			if got := c.Cost(a, cfg2); got != want {
				t.Errorf("equal-ID configuration cost %v, want %v", got, want)
			}
			if calls := c.Calls(); calls != int64(tc.atoms) {
				t.Errorf("the equal-ID configuration paid %d more inner calls, want 0", calls-int64(tc.atoms))
			}
		})
	}
}
