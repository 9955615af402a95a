package optimizer_test

import (
	"math"
	"strings"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
	"physdes/internal/workload"
)

// fuzzScenario pairs a catalog with candidate structures enumerated from
// its generated workload; fuzz inputs select configurations out of cands.
type fuzzScenario struct {
	name  string
	cat   *catalog.Catalog
	cands []physical.Structure
}

// fuzzConfig deterministically maps a 64-bit selector to a configuration:
// each set bit picks one candidate (strided so neighbouring bits land on
// unrelated structures). NewConfiguration collapses duplicate picks.
func fuzzConfig(cands []physical.Structure, sel uint64) *physical.Configuration {
	var structs []physical.Structure
	for bit := 0; bit < 64 && sel != 0; bit++ {
		if sel&1 != 0 {
			structs = append(structs, cands[(bit*131)%len(cands)])
		}
		sel >>= 1
	}
	return physical.NewConfiguration("fuzz", structs...)
}

// FuzzAtomDecompose hunts for statements where atomic decomposition loses
// an index or view that direct costing would use. Two properties must hold
// for every accepted input:
//
//  1. Exactness: the minimum over the atoms' direct costs equals the direct
//     cost of the full configuration, bit for bit.
//  2. Coverage: every configuration structure the chosen plan reports in
//     its Explain tree appears in some atom — decompose→reassemble never
//     drops a structure the winning plan reads.
//
// The seed corpus draws from both workload generators (TPC-D and CRM) so
// plain `go test` exercises every statement kind against both catalogs.
func FuzzAtomDecompose(f *testing.F) {
	tpcdCat := catalog.TPCD(0.01)
	tw, err := workload.GenTPCD(tpcdCat, 120, 31)
	if err != nil {
		f.Fatalf("GenTPCD: %v", err)
	}
	crmCat := catalog.CRM()
	cw, err := workload.GenCRM(crmCat, 120, 32)
	if err != nil {
		f.Fatalf("GenCRM: %v", err)
	}
	scenarios := make([]fuzzScenario, 0, 2)
	for _, sc := range []struct {
		name string
		cat  *catalog.Catalog
		w    *workload.Workload
	}{
		{"tpcd", tpcdCat, tw},
		{"crm", crmCat, cw},
	} {
		var analyses []*sqlparse.Analysis
		for _, q := range sc.w.Queries {
			analyses = append(analyses, q.Analysis)
		}
		cands := physical.EnumerateCandidates(sc.cat, analyses,
			physical.CandidateOptions{Covering: true, Views: true})
		if len(cands) == 0 {
			f.Fatalf("%s: no candidates", sc.name)
		}
		scenarios = append(scenarios, fuzzScenario{name: sc.name, cat: sc.cat, cands: cands})
		for i, q := range sc.w.Queries {
			if i >= 48 {
				break
			}
			f.Add(q.SQL, uint64(i+1)*0x9e3779b97f4a7c15)
		}
	}
	// Hand-picked shapes the generators rarely emit: empty selector, wide
	// selectors, and DML.
	f.Add("SELECT l_quantity FROM lineitem WHERE l_orderkey = 5", uint64(0))
	f.Add("SELECT l_quantity FROM lineitem WHERE l_orderkey = 5", ^uint64(0))
	f.Add("UPDATE lineitem SET l_quantity = 1 WHERE l_partkey = 3", uint64(0xff00ff00ff00ff0))
	f.Add("DELETE FROM orders WHERE o_orderdate < 100", uint64(0x123456789abcdef))
	f.Add("INSERT INTO customers (id, name) VALUES (1, 'x')", uint64(42))

	f.Fuzz(func(t *testing.T, src string, sel uint64) {
		st, err := sqlparse.Parse(src)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		for _, sc := range scenarios {
			a, err := sqlparse.Analyze(st, sc.cat.Resolve)
			if err != nil {
				continue // statement does not resolve against this catalog
			}
			cfg := fuzzConfig(sc.cands, sel)
			atoms := optimizer.Decompose(a, cfg)
			o := optimizer.New(sc.cat)
			direct := o.Cost(a, cfg)

			best := math.Inf(1)
			for _, atom := range atoms {
				if v := o.Cost(a, atom); v < best {
					best = v
				}
			}
			if best != direct {
				t.Fatalf("%s: atomic min %v != direct %v\nsrc=%q sel=%#x cfg=%s atoms=%d",
					sc.name, best, direct, src, sel, cfg.Fingerprint(), len(atoms))
			}

			// Coverage: any cfg structure named in the winning plan's Explain
			// tree must survive into the atom union. Structure IDs are fully
			// parenthesized, so substring matching cannot confuse an index
			// with an extension of its key.
			union := make(map[string]bool)
			for _, atom := range atoms {
				for _, s := range atom.Structures() {
					union[s.ID()] = true
				}
			}
			var details []string
			var walk func(n *optimizer.PlanNode)
			walk = func(n *optimizer.PlanNode) {
				if n == nil {
					return
				}
				if n.Detail != "" {
					details = append(details, n.Detail)
				}
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(o.Explain(a, cfg).Root)
			for _, s := range cfg.Structures() {
				id := s.ID()
				if union[id] {
					continue
				}
				for _, d := range details {
					if strings.Contains(d, id) {
						t.Fatalf("%s: plan uses %s but decomposition dropped it\nsrc=%q sel=%#x cfg=%s",
							sc.name, id, src, sel, cfg.Fingerprint())
					}
				}
			}
		}
	})
}
