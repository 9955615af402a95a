package physdes

// Benchmarks regenerating the paper's tables and figures. Each experiment
// of Section 7 has a matching benchmark:
//
//	Table 1   → BenchmarkTable1SigmaMax/rho=*      (the paper's own metric
//	            is runtime, so these *are* the table)
//	Figure 1  → BenchmarkFigure1EasyPair
//	Figure 2  → BenchmarkFigure2FineStrat
//	Figure 3  → BenchmarkFigure3HardPair
//	Figure 4  → BenchmarkFigure4CRM
//	Table 2   → BenchmarkTable2MultiConfigTPCD
//	Table 3   → BenchmarkTable3MultiConfigCRM
//	§7.3      → BenchmarkSec73Compression
//	§6        → BenchmarkCLTSkewBound, BenchmarkConservativeDerive
//
// plus micro-benchmarks of the substrate (what-if calls, parsing, DP).
// Full paper-format rows come from `go run ./cmd/benchrunner`.

import (
	"runtime"
	"sync"
	"testing"

	"physdes/internal/bounds"
	"physdes/internal/compress"
	"physdes/internal/experiments"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// benchParams keeps the per-iteration work bounded; benchrunner regenerates
// the full tables.
func benchParams() experiments.Params {
	return experiments.Params{
		TPCDQueries: 2_000,
		CRMQueries:  1_200,
		Repeats:     20,
		Ks:          []int{10},
		SigmaN:      10_000,
		Seed:        1,
	}
}

var (
	benchOnce     sync.Once
	benchTPCD     *experiments.Scenario
	benchCRM      *experiments.Scenario
	benchEasy     *experiments.Pair
	benchHard     *experiments.Pair
	benchDisjoint *experiments.Pair
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		p := benchParams()
		var err error
		benchTPCD, err = experiments.TPCDScenario(p)
		if err != nil {
			panic(err)
		}
		benchCRM, err = experiments.CRMScenario(p)
		if err != nil {
			panic(err)
		}
		benchEasy = experiments.EasyPair(benchTPCD, p.Seed)
		benchHard = experiments.HardPair(benchTPCD, p.Seed)
		benchDisjoint = experiments.DisjointPair(benchCRM, p.Seed)
	})
}

// benchMC runs one fixed-budget Monte-Carlo selection per iteration.
func benchMC(b *testing.B, s *experiments.Scenario, pair *experiments.Pair, v experiments.SchemeVariant, budget int64) {
	b.Helper()
	tmpls := s.W.Partition()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := sampling.NewMatrixOracle(pair.Matrix)
		_, err := sampling.Run(oracle, sampling.Options{
			Scheme: v.Scheme, Strat: v.Strat, MaxCalls: budget, NMin: 20,
			RNG:       stats.NewRNG(uint64(i) + 99),
			Templates: tmpls,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1SigmaMax(b *testing.B) {
	ivs := experiments.SigmaIntervals(10_000, 3)
	for _, rho := range []float64{10, 1, 0.1} {
		b.Run(rhoName(rho), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bounds.SigmaMaxDP(ivs, rho); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func rhoName(rho float64) string {
	switch rho {
	case 10:
		return "rho=10"
	case 1:
		return "rho=1"
	default:
		return "rho=0.1"
	}
}

func BenchmarkFigure1EasyPair(b *testing.B) {
	benchSetup(b)
	for _, v := range experiments.FigureVariants() {
		b.Run(v.Name, func(b *testing.B) {
			benchMC(b, benchTPCD, benchEasy, v, 200)
		})
	}
}

func BenchmarkFigure2FineStrat(b *testing.B) {
	benchSetup(b)
	for _, v := range experiments.Fig2Variants() {
		b.Run(v.Name, func(b *testing.B) {
			benchMC(b, benchTPCD, benchEasy, v, 200)
		})
	}
}

func BenchmarkFigure3HardPair(b *testing.B) {
	benchSetup(b)
	for _, v := range experiments.FigureVariants() {
		b.Run(v.Name, func(b *testing.B) {
			benchMC(b, benchTPCD, benchHard, v, 400)
		})
	}
}

func BenchmarkFigure4CRM(b *testing.B) {
	benchSetup(b)
	for _, v := range experiments.FigureVariants() {
		b.Run(v.Name, func(b *testing.B) {
			benchMC(b, benchCRM, benchDisjoint, v, 300)
		})
	}
}

// benchAdaptive runs the full Table 2/3 primitive (adaptive termination,
// stability window, elimination) once per iteration on a k-configuration
// matrix.
func benchAdaptive(b *testing.B, s *experiments.Scenario, k int) {
	b.Helper()
	_, m := experiments.Space(s, k, 11)
	tmpls := s.W.Partition()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := sampling.NewMatrixOracle(m)
		_, err := sampling.Run(oracle, sampling.Options{
			Scheme: sampling.Delta, Strat: sampling.Progressive,
			Alpha: 0.9, StabilityWindow: 10, EliminationThreshold: 0.995,
			RNG:       stats.NewRNG(uint64(i) + 7),
			Templates: tmpls,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2MultiConfigTPCD(b *testing.B) {
	benchSetup(b)
	benchAdaptive(b, benchTPCD, 10)
}

func BenchmarkTable3MultiConfigCRM(b *testing.B) {
	benchSetup(b)
	benchAdaptive(b, benchCRM, 10)
}

func BenchmarkSec73Compression(b *testing.B) {
	benchSetup(b)
	w := benchTPCD.W
	empty := NewConfiguration("empty")
	costs := make([]float64, w.Size())
	for i, q := range w.Queries {
		costs[i] = benchTPCD.Opt.Cost(q.Analysis, empty)
	}
	b.Run("TopCost", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress.TopCost(w, costs, 0.2)
		}
	})
	b.Run("Cluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress.Cluster(w, costs, 50)
		}
	})
}

func BenchmarkCLTSkewBound(b *testing.B) {
	ivs := experiments.SigmaIntervals(5_000, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bounds.SkewMax(ivs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConservativeDerive measures Section 6 bound derivation as a
// conservative-mode Select runs it, at the paper's TPC-D scale (13K
// statements, k=15, ρ=1): per-query intervals, σ²_max of the Delta
// differences (the DP, or its threshold fallback when the table is too
// large), and the Equation 9 sample-size floor from the skew bound. The
// interval spreads here are wide, unlike BenchmarkCLTSkewBound's.
func BenchmarkConservativeDerive(b *testing.B) {
	cat := TPCDCatalog(1)
	wl, err := GenTPCD(cat, 13_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	cands := EnumerateCandidates(cat, wl, CandidateOptions{Covering: true, Views: true})
	configs := GenerateConfigurations(cat, cands, 15, 12, SpaceOptions{MinStructures: 3, MaxStructures: 10})
	d := bounds.NewDeriver(NewOptimizer(cat), configs...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ivs := d.WorkloadIntervals(wl)
		diffs := bounds.DiffIntervals(ivs, ivs)
		if _, err := bounds.SigmaMaxDP(diffs, 1); err != nil {
			bounds.SigmaMaxThreshold(diffs)
		}
		if _, err := bounds.CLTMinSamples(ivs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectCallThroughput measures a Select's what-if call
// throughput: a fine-stratified TPC-D selection in fixed-budget mode, so
// every run spends the same optimizer calls.
func BenchmarkSelectCallThroughput(b *testing.B) {
	benchSetup(b)
	configs := GenerateConfigurations(benchTPCD.Cat, benchTPCD.Candidates, 16, 18,
		SpaceOptions{MinStructures: 3, MaxStructures: 8})
	if len(configs) < 2 {
		b.Fatalf("only %d configurations", len(configs))
	}
	o := Options{Scheme: DeltaSampling, Strat: FineStratification, NMin: 60, MaxCalls: 20_000, Seed: 31}
	var calls int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := Select(benchTPCD.Opt, benchTPCD.W, configs, o)
		if err != nil {
			b.Fatal(err)
		}
		calls += sel.OptimizerCalls
	}
	b.StopTimer()
	if calls > 0 {
		b.ReportMetric(float64(calls)/b.Elapsed().Seconds(), "calls/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(calls), "ns/call")
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkWhatIfCall times one what-if call per probe shape: a
// single-table SELECT, a three-table join, a join answered by a
// materialized view, an UPDATE (locate plus maintenance), and an
// atom-shared probe — a configuration whose atoms the atom store already
// holds, so the probe reassembles stored costs without an inner call.
// Statements are bound as workload parsing binds them; the
// single-table-unbound case times the same SELECT estimating its
// selectivities on every call. CI fails when any of them reports an
// allocation.
func BenchmarkWhatIfCall(b *testing.B) {
	benchSetup(b)
	cat := benchTPCD.Cat
	analyze := func(src string) *sqlparse.Analysis {
		stmt, err := sqlparse.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		a, err := sqlparse.Analyze(stmt, cat.Resolve)
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	parse := func(src string) *sqlparse.Analysis {
		a := analyze(src)
		optimizer.Bind(cat, a)
		return a
	}
	joinSQL := "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l " +
		"WHERE o.o_orderkey = l.l_orderkey AND l_shipdate < 50"
	view := physical.NewView([]string{"orders", "lineitem"}, parse(joinSQL).Joins,
		[]sqlparse.TableColumn{
			{Table: "orders", Column: "o_orderdate"},
			{Table: "orders", Column: "o_orderkey"},
			{Table: "lineitem", Column: "l_extendedprice"},
			{Table: "lineitem", Column: "l_orderkey"},
			{Table: "lineitem", Column: "l_shipdate"},
		}, nil)
	cases := []struct {
		name string
		sql  string
		cfg  *Configuration
	}{
		{"single-table", "SELECT l_quantity FROM lineitem WHERE l_shipdate < 100 AND l_quantity = 5 ORDER BY l_shipdate",
			NewConfiguration("c", NewIndex("lineitem", []string{"l_shipdate"}, "l_quantity"), NewIndex("lineitem", []string{"l_quantity"}))},
		{"join", "SELECT c_name, o_orderdate, l_tax FROM customer c, orders o, lineitem l " +
			"WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey AND c_mktsegment = 'SEG#1' AND o_orderdate < 30",
			NewConfiguration("c", NewIndex("orders", []string{"o_custkey"}), NewIndex("lineitem", []string{"l_orderkey"}),
				NewIndex("customer", []string{"c_mktsegment"}))},
		{"view", joinSQL, NewConfiguration("c", view, NewIndex("lineitem", []string{"l_shipdate"}))},
		{"dml", "UPDATE lineitem SET l_tax = 1 WHERE l_shipdate < 10",
			NewConfiguration("c", NewIndex("lineitem", []string{"l_shipdate"}), NewIndex("lineitem", []string{"l_tax"}), view)},
	}
	for _, tc := range cases {
		a := parse(tc.sql)
		opt := NewOptimizer(cat)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt.Cost(a, tc.cfg)
			}
		})
	}
	b.Run("single-table-unbound", func(b *testing.B) {
		a := analyze(cases[0].sql)
		opt := NewOptimizer(cat)
		opt.Cost(a, cases[0].cfg) // builds the column histograms binding would have
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt.Cost(a, cases[0].cfg)
		}
	})
	b.Run("atom-shared", func(b *testing.B) {
		a := parse(cases[1].sql)
		c := NewAtomicOptimizer(NewOptimizer(cat))
		c.Cost(a, cases[1].cfg)
		// Same relevant structures plus one the statement cannot read: a
		// new configuration whose atoms are all stored.
		probe := cases[1].cfg.With("probe", NewIndex("region", []string{"r_name"}))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Cost(a, probe)
		}
	})
}

func BenchmarkParseAnalyze(b *testing.B) {
	cat := TPCDCatalog(0.01)
	const src = "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)), o_orderdate " +
		"FROM customer c, orders o, lineitem l WHERE c.c_custkey = o.o_custkey " +
		"AND l.l_orderkey = o.o_orderkey AND c_mktsegment = 'SEG#1' AND o_orderdate < 100 " +
		"GROUP BY l_orderkey, o_orderdate"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt, err := sqlparse.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sqlparse.Analyze(stmt, cat.Resolve); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadParse parses the SQL text of a 13K-statement TPC-D
// workload (Table 2's size) into a workload, reporting the per-statement
// cost of ingest: statements of a known signature copy and patch their
// template's analysis instead of being parsed.
func BenchmarkWorkloadParse(b *testing.B) {
	cat := TPCDCatalog(1)
	w, err := workload.GenTPCD(cat, 13_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	sqls := make([]string, w.Size())
	for i, q := range w.Queries {
		sqls[i] = q.SQL
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Parse(cat, sqls); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	stmts := float64(b.N) * float64(len(sqls))
	b.ReportMetric(float64(b.Elapsed().Microseconds())/stmts, "us/stmt")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/stmts, "allocs/stmt")
}

func BenchmarkTemplateExtraction(b *testing.B) {
	stmt, err := sqlparse.Parse("SELECT a, b FROM t WHERE a = 5 AND b BETWEEN 1 AND 2 AND c IN (1,2,3)")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqlparse.Template(stmt)
	}
}

func BenchmarkSelectEndToEnd(b *testing.B) {
	cat := TPCDCatalog(0.1)
	wl, err := GenTPCD(cat, 1_000, 3)
	if err != nil {
		b.Fatal(err)
	}
	cands := EnumerateCandidates(cat, wl, CandidateOptions{Covering: true})
	configs := GenerateConfigurations(cat, cands, 4, 5, SpaceOptions{MinStructures: 3, MaxStructures: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := NewOptimizer(cat)
		o := DefaultOptions(uint64(i) + 1)
		if _, err := Select(opt, wl, configs, o); err != nil {
			b.Fatal(err)
		}
	}
}
