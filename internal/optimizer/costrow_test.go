package optimizer_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/obs"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// rowSpace is one of the benchmark's selection spaces: a generated
// workload and a configuration space drawn from its candidates the way
// perfbench draws it.
type rowSpace struct {
	name    string
	cat     *catalog.Catalog
	w       *workload.Workload
	configs []*physical.Configuration
}

var (
	rowSpacesOnce sync.Once
	rowSpacesVal  []rowSpace
	rowSpacesErr  error
)

// rowSpaces builds, once per process, TPC-D 13K (k=50, space seed 12)
// and CRM 6K (k=200, space seed 4), both generated from seed 1000.
func rowSpaces(tb testing.TB) []rowSpace {
	tb.Helper()
	rowSpacesOnce.Do(func() {
		for _, sp := range []struct {
			name      string
			n, k      int
			spaceSeed uint64
		}{
			{"tpcd-k50", 13_000, 50, 12},
			{"crm-k200", 6_000, 200, 4},
		} {
			cat, gen, views := catalog.TPCD(1), workload.GenTPCD, true
			if sp.name == "crm-k200" {
				cat, gen, views = catalog.CRM(), workload.GenCRM, false
			}
			w, err := gen(cat, sp.n, 1000)
			if err != nil {
				rowSpacesErr = err
				return
			}
			analyses := w.Analyses()
			cands := physical.EnumerateCandidates(cat, analyses,
				physical.CandidateOptions{Covering: true, Views: views})
			configs := physical.GenerateSpace(cat, cands, sp.k, stats.NewRNG(sp.spaceSeed),
				physical.SpaceOptions{MinStructures: 3, MaxStructures: 10})
			if len(configs) != sp.k {
				rowSpacesErr = fmt.Errorf("%s: space has %d configurations, want %d", sp.name, len(configs), sp.k)
				return
			}
			rowSpacesVal = append(rowSpacesVal, rowSpace{name: sp.name, cat: cat, w: w, configs: configs})
		}
	})
	if rowSpacesErr != nil {
		tb.Fatal(rowSpacesErr)
	}
	return rowSpacesVal
}

// rowConfigs returns row r's configurations: the whole space for even r,
// as a Delta row before any elimination, and a shrinking subset for odd
// r, as rows after eliminations carry.
func rowConfigs(configs []*physical.Configuration, r int) []*physical.Configuration {
	if r%2 == 0 {
		return configs
	}
	var out []*physical.Configuration
	for j, c := range configs {
		if (j+r)%(2+r%5) == 0 {
			out = append(out, c)
		}
	}
	return out
}

// TestCostRowMatchesCost pins CostRow to per-configuration Cost: rows of
// the benchmark's two spaces, costed by one atom store as rows and by
// another pair by pair in the same order, give bit-identical values and,
// after every row, identical Calls, Stats and registry counters.
func TestCostRowMatchesCost(t *testing.T) {
	const rows = 120
	for _, sp := range rowSpaces(t) {
		t.Run(sp.name, func(t *testing.T) {
			row := optimizer.NewAtomicCache(optimizer.New(sp.cat))
			pair := optimizer.NewAtomicCache(optimizer.New(sp.cat))
			rowReg, pairReg := obs.NewRegistry(), obs.NewRegistry()
			row.SetMetrics(rowReg)
			pair.SetMetrics(pairReg)
			out := make([]float64, len(sp.configs))
			for r := 0; r < rows; r++ {
				// Revisit each statement once, as a later round's row over a
				// stored surface.
				q := (r % (rows / 2)) * (sp.w.Size() / (rows / 2))
				a := sp.w.Queries[q].Analysis
				cfgs := rowConfigs(sp.configs, r)
				row.CostRow(a, cfgs, out)
				for i, cfg := range cfgs {
					if want := pair.Cost(a, cfg); math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("row %d (query %d) config %s: CostRow %v, Cost %v", r, q, cfg.Name(), out[i], want)
					}
				}
				if row.Calls() != pair.Calls() {
					t.Fatalf("row %d: CostRow charged %d calls, Cost %d", r, row.Calls(), pair.Calls())
				}
				rh, rm, re := row.Stats()
				ph, pm, pe := pair.Stats()
				if rh != ph || rm != pm || re != pe {
					t.Fatalf("row %d: CostRow stats (hits %d, misses %d, entries %d), Cost (%d, %d, %d)",
						r, rh, rm, re, ph, pm, pe)
				}
			}
			for _, name := range []string{"optimizer_atom_hits_total", "optimizer_atoms_total", "optimizer_calls_total"} {
				if got, want := rowReg.Counter(name).Value(), pairReg.Counter(name).Value(); got != want {
					t.Errorf("%s: rows %d, pairs %d", name, got, want)
				}
			}
		})
	}
}

// BenchmarkCostRow times the row path on the benchmark's two spaces:
// rows of 64 statements spread over the workload, each under every
// configuration, over an atom store that already holds their atoms, so
// the figure is the sharing layer's own cost. The row sub-benchmarks cost
// each statement with one CostRow; the pairs ones make one Cost call per
// configuration, as a per-pair caller does. Both report ns per probe. CI
// fails when either reports an allocation.
//
// The cold sub-benchmarks cost the same rows over a fresh store per op
// (built outside the timer), so every atom is interned and paid for; they
// report ns per probe and allocations per interned atom (distinct
// non-empty atom structure sets), which CI bounds from above.
//
// The shapes sub-benchmarks cost rows of statements the store has not
// seen, over a store that has costed one statement of every shape under
// every configuration: the plan table knows each (shape, configuration)
// pair, but each statement pays for its own atoms, as a Select's rows do.
// A store is rebuilt, outside the timer, when the workload's statements
// run out. They report ns per probe; the memo map's growth is their only
// allocation.
func BenchmarkCostRow(b *testing.B) {
	const stmts = 64
	for _, sp := range rowSpaces(b) {
		ac := optimizer.NewAtomicCache(optimizer.New(sp.cat))
		analyses := make([]*sqlparse.Analysis, stmts)
		for i := range analyses {
			analyses[i] = sp.w.Queries[i*(sp.w.Size()/stmts)].Analysis
		}
		out := make([]float64, len(sp.configs))
		for _, a := range analyses {
			ac.CostRow(a, sp.configs, out)
		}
		probes := float64(stmts * len(sp.configs))
		b.Run(sp.name+"/row", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, a := range analyses {
					ac.CostRow(a, sp.configs, out)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(probes*float64(b.N)), "ns/probe")
		})
		atoms := map[string]bool{}
		for _, a := range analyses {
			for _, cfg := range sp.configs {
				for _, atom := range optimizer.Decompose(a, cfg) {
					if atom.NumStructures() > 0 {
						atoms[atom.Fingerprint()] = true
					}
				}
			}
		}
		b.Run(sp.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cold := optimizer.NewAtomicCache(optimizer.New(sp.cat))
				runtime.ReadMemStats(&before)
				b.StartTimer()
				for _, a := range analyses {
					cold.CostRow(a, sp.configs, out)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(probes*float64(b.N)), "ns/probe")
			b.ReportMetric(float64(mallocs)/float64(len(atoms)*b.N), "allocs/atom")
		})
		b.Run(sp.name+"/shapes", func(b *testing.B) {
			seen, fresh := splitByShape(sp.w)
			var st *optimizer.AtomicCache
			next := len(fresh)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next+stmts > len(fresh) {
					b.StopTimer()
					st = optimizer.NewAtomicCache(optimizer.New(sp.cat))
					for _, a := range seen {
						st.CostRow(a, sp.configs, out)
					}
					next = 0
					b.StartTimer()
				}
				for _, a := range fresh[next : next+stmts] {
					st.CostRow(a, sp.configs, out)
				}
				next += stmts
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(probes*float64(b.N)), "ns/probe")
		})
		b.Run(sp.name+"/pairs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, a := range analyses {
					for j, cfg := range sp.configs {
						out[j] = ac.Cost(a, cfg)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(probes*float64(b.N)), "ns/probe")
		})
	}
}

// splitByShape returns the first statement of each shape in w (statements
// sharing their shape stamps, Analysis.Bound) and the others, in workload
// order.
func splitByShape(w *workload.Workload) (seen, fresh []*sqlparse.Analysis) {
	shapes := map[any]bool{}
	for _, q := range w.Queries {
		if a := q.Analysis; shapes[a.Bound] {
			fresh = append(fresh, a)
		} else {
			shapes[a.Bound] = true
			seen = append(seen, a)
		}
	}
	return seen, fresh
}
