package optimizer

import (
	"testing"

	"physdes/internal/physical"
)

// TestAtomIDSharedByFingerprint pins atom numbering to fingerprints:
// distinct *Configuration values with one fingerprint share an id, and so
// do projection atoms holding one structure set in different orders
// (interned as distinct atoms, since the cost model observes index order).
// The empty projection shares the empty atom's id.
func TestAtomIDSharedByFingerprint(t *testing.T) {
	var in atomInterner
	a1 := in.singleton(physical.NewIndex("lineitem", []string{"l_orderkey"}))
	a2 := in.singleton(physical.NewIndex("lineitem", []string{"l_orderkey"}))
	if a1.cfg == a2.cfg {
		t.Fatal("want distinct singleton atoms for distinct index values")
	}
	if a1.id != a2.id {
		t.Errorf("equal-fingerprint singletons got ids %d and %d", a1.id, a2.id)
	}

	narrow := physical.NewIndex("lineitem", []string{"l_orderkey"})
	covering := physical.NewIndex("lineitem", []string{"l_orderkey"}, "l_quantity")
	p1 := in.projection([]*physical.Index{narrow, covering}, nil)
	p2 := in.projection([]*physical.Index{covering, narrow}, nil)
	if p1.cfg == p2.cfg {
		t.Fatal("want distinct projection atoms for distinct index orders")
	}
	if p1.cfg.Fingerprint() != p2.cfg.Fingerprint() {
		t.Fatalf("same-set projections should share a fingerprint: %q vs %q", p1.cfg.Fingerprint(), p2.cfg.Fingerprint())
	}
	if p1.id != p2.id {
		t.Errorf("same-set, different-order projections got ids %d and %d", p1.id, p2.id)
	}
	if again := in.projection([]*physical.Index{narrow, covering}, nil); again != p1 {
		t.Errorf("re-interning a projection returned %+v, want %+v", again, p1)
	}
	if e := in.projection(nil, nil); e.id != emptyAtom.id {
		t.Errorf("empty projection id %d, want the empty atom's %d", e.id, emptyAtom.id)
	}

	wide := func() *physical.Configuration {
		return physical.NewConfiguration("wide", narrow, covering, physical.NewIndex("orders", []string{"o_orderkey"}))
	}
	f1, f2 := in.fallback(wide()), in.fallback(wide())
	if f1.cfg == f2.cfg || f1.id != f2.id {
		t.Errorf("equal-fingerprint fallbacks: distinct=%v ids %d and %d, want distinct values sharing an id", f1.cfg != f2.cfg, f1.id, f2.id)
	}
}

// TestAtomIDDistinctFingerprints pins the other direction: distinct
// fingerprints get distinct ids, and a width-bound fallback
// configuration's id differs from every atom's.
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
	record(in.projection(indexes[:2], nil))
	record(in.projection(indexes[1:], nil))
	record(in.projection(indexes[2:], nil))
	// A one-index projection has its singleton's fingerprint, hence its id.
	if p, s := in.projection(indexes[3:], nil), in.singleton(indexes[3]); p.id != s.id {
		t.Errorf("one-index projection id %d, want its singleton's %d", p.id, s.id)
	}
	atoms := len(byID)
	if atoms != 8 {
		t.Fatalf("%d distinct atom ids, want 8 (empty, 4 singletons, 3 projections)", atoms)
	}
	f := in.fallback(physical.NewConfiguration("wide", indexes[0], indexes[1], indexes[2], indexes[3]))
	if _, ok := byID[f.id]; ok {
		t.Errorf("fallback id %d collides with an atom's", f.id)
	}
}
