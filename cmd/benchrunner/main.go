// Command benchrunner regenerates every table and figure of the paper's
// evaluation (Section 7) and prints paper-format rows.
//
// Usage:
//
//	benchrunner [-exp all|table1|fig1|fig2|fig3|fig4|table2|table3|sec73|clt|elim|stability|batching|scaling|rho|atoms|drift]
//	            [-quick|-paper] [-seed N] [-repeats N]
//	            [-profile cpu.pprof] [-heap-profile heap.pprof] [-metrics]
//	            [-json BENCH_atoms.json] [-listen 127.0.0.1:6060]
//
// Quick mode (default) uses reduced workload sizes and Monte-Carlo repeat
// counts so the full suite finishes in minutes; -paper switches to the
// paper's sizes (13K/6K queries, 5000 repeats, k up to 500).
//
// -json writes the rows of -exp atoms or drift as the committed artifact
// (BENCH_atoms.json, BENCH_warmstart.json); it is a usage error with any
// other experiment.
//
// -profile records a CPU profile of the whole run (and -heap-profile a
// heap profile at exit) for `go tool pprof`; -metrics attaches a registry
// to the scenario optimizers and prints its Prometheus text exposition on
// stderr when the run finishes. -listen serves the registry (and pprof)
// over HTTP while the suite runs — /healthz, /metrics, /metrics.json,
// /debug/pprof/* — and an interrupt (Ctrl-C / SIGTERM) stops the run at
// the next experiment boundary, still finalizing profiles and metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"physdes/internal/bounds"
	"physdes/internal/experiments"
	"physdes/internal/obs"
	"physdes/internal/obs/live"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (all, table1, fig1, fig2, fig3, fig4, table2, table3, sec73, clt, elim, stability, batching, scaling, rho, atoms, drift)")
		paper   = flag.Bool("paper", false, "paper-scale sizes (13K/6K queries, 5000 repeats)")
		seed    = flag.Uint64("seed", 1, "random seed")
		repeats = flag.Int("repeats", 0, "override Monte-Carlo repeats")
		csvDir  = flag.String("csv", "", "also write each experiment's data as CSV into this directory")
		profile = flag.String("profile", "", "write a CPU profile of the run to this file")
		heap    = flag.String("heap-profile", "", "write a heap profile at exit to this file")
		metrics = flag.Bool("metrics", false, "print the metrics registry (Prometheus text format) on stderr at exit")
		jsonOut = flag.String("json", "", "write the rows of -exp atoms or drift as JSON to this file")
		listen  = flag.String("listen", "", "serve live introspection HTTP (/healthz, /metrics, /debug/pprof) on this address while the run executes")
	)
	flag.Parse()
	if *jsonOut != "" && *exp != "atoms" && *exp != "drift" {
		fmt.Fprintf(os.Stderr, "benchrunner: -json needs -exp atoms or drift (got -exp %s)\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	sigCtx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	p := experiments.Quick()
	if *paper {
		p = experiments.PaperScale()
	}
	p.Seed = *seed
	if *repeats > 0 {
		p.Repeats = *repeats
	}

	var reg *obs.Registry
	if *metrics || *listen != "" {
		reg = obs.NewRegistry()
		bounds.SetMetrics(reg)
	}
	if *listen != "" {
		reg.Gauge("physdes_up").Set(1)
		srv := live.New(reg)
		addr, err := srv.Start(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "# introspection: http://%s (/healthz /metrics /metrics.json /debug/pprof)\n", addr)
	}
	var stopProfile func() error
	if *profile != "" {
		stop, err := obs.StartCPUProfile(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		stopProfile = stop
	}

	// The suite runs in a goroutine so an interrupt can cut it short while
	// profiles and metrics below still finalize before exit.
	errc := make(chan error, 1)
	go func() { errc <- run(*exp, p, *csvDir, reg, *jsonOut) }()
	var err error
	select {
	case err = <-errc:
	case <-sigCtx.Done():
		err = fmt.Errorf("interrupted, partial results above: %w", sigCtx.Err())
	}

	if stopProfile != nil {
		if perr := stopProfile(); perr != nil {
			if err == nil {
				err = perr
			}
		} else {
			fmt.Fprintf(os.Stderr, "# wrote CPU profile to %s\n", *profile)
		}
	}
	if *heap != "" {
		if herr := obs.WriteHeapProfile(*heap); herr != nil {
			if err == nil {
				err = herr
			}
		} else {
			fmt.Fprintf(os.Stderr, "# wrote heap profile to %s\n", *heap)
		}
	}
	if *metrics {
		fmt.Fprintln(os.Stderr, "# metrics")
		reg.WriteProm(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run(exp string, p experiments.Params, csvDir string, reg *obs.Registry, jsonOut string) error {
	writeCSV := func(name string, fn func() error) {
		if csvDir == "" {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: csv %s: %v%c", name, err, 10)
		}
	}
	out := os.Stdout
	all := exp == "all"

	var tpcd, crm *experiments.Scenario
	needTPCD := all || exp == "fig1" || exp == "fig2" || exp == "fig3" ||
		exp == "table2" || exp == "sec73" || exp == "elim" || exp == "stability" ||
		exp == "batching" || exp == "scaling" || exp == "atoms"
	needCRM := all || exp == "fig4" || exp == "table3"

	var err error
	if needTPCD {
		start := time.Now()
		tpcd, err = experiments.TPCDScenario(p)
		if err != nil {
			return err
		}
		if reg != nil {
			tpcd.Opt.SetMetrics(reg)
		}
		fmt.Fprintf(out, "# TPC-D scenario: %d queries, %d templates, %d candidates\n\n",
			tpcd.W.Size(), tpcd.W.NumTemplates(), len(tpcd.Candidates))
		fmt.Fprintf(os.Stderr, "# TPC-D scenario built in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if needCRM {
		start := time.Now()
		crm, err = experiments.CRMScenario(p)
		if err != nil {
			return err
		}
		if reg != nil {
			crm.Opt.SetMetrics(reg)
		}
		fmt.Fprintf(out, "# CRM scenario: %d statements, %d templates\n\n",
			crm.W.Size(), crm.W.NumTemplates())
		fmt.Fprintf(os.Stderr, "# CRM scenario built in %v\n", time.Since(start).Round(time.Millisecond))
	}

	if all || exp == "table1" {
		rows, err := experiments.Table1(p)
		if err != nil {
			return err
		}
		if err := experiments.PrintSigmaRows(out, rows); err != nil {
			return err
		}
		writeCSV("table1", func() error { return experiments.WriteSigmaCSV(csvDir, "table1", rows) })
		fmt.Fprintln(out)
	}
	if all || exp == "fig1" {
		pair := experiments.EasyPair(tpcd, p.Seed)
		fmt.Fprintf(out, "Figure 1: TPC-D easy pair (gap %.1f%%, overlap %.2f, C1 views=%d)\n",
			100*pair.Gap, pair.Overlap, len(pair.Configs[0].Views()))
		series := experiments.Figure(tpcd, pair, experiments.FigureVariants(), p)
		if err := experiments.PrintSeries(out, "Monte-Carlo true Pr(CS) by optimizer-call budget:", series); err != nil {
			return err
		}
		writeCSV("fig1", func() error { return experiments.WriteSeriesCSV(csvDir, "fig1", series) })
		fmt.Fprintln(out)
	}
	if all || exp == "fig2" {
		// The paper reuses the Figure 1 pair; in this substrate the easy
		// pair's deciding structure dwarfs within-template noise, so the
		// fine-vs-progressive contrast only shows on the hard pair (see
		// EXPERIMENTS.md).
		pair := experiments.HardPair(tpcd, p.Seed)
		fmt.Fprintf(out, "Figure 2: progressive vs fine stratification (hard pair, gap %.2f%%)\n",
			100*pair.Gap)
		series := experiments.Figure(tpcd, pair, experiments.Fig2Variants(), p)
		if err := experiments.PrintSeries(out, "Monte-Carlo true Pr(CS) by optimizer-call budget:", series); err != nil {
			return err
		}
		writeCSV("fig2", func() error { return experiments.WriteSeriesCSV(csvDir, "fig2", series) })
		fmt.Fprintln(out)
	}
	if all || exp == "fig3" {
		pair := experiments.HardPair(tpcd, p.Seed)
		fmt.Fprintf(out, "Figure 3: TPC-D hard pair (gap %.2f%%, overlap %.2f, both index-only)\n",
			100*pair.Gap, pair.Overlap)
		series := experiments.Figure(tpcd, pair, experiments.FigureVariants(), p)
		if err := experiments.PrintSeries(out, "Monte-Carlo true Pr(CS) by optimizer-call budget:", series); err != nil {
			return err
		}
		writeCSV("fig3", func() error { return experiments.WriteSeriesCSV(csvDir, "fig3", series) })
		fmt.Fprintln(out)
	}
	if all || exp == "fig4" {
		pair := experiments.DisjointPair(crm, p.Seed)
		fmt.Fprintf(out, "Figure 4: CRM pair (gap %.2f%%, overlap %.2f, %d templates)\n",
			100*pair.Gap, pair.Overlap, crm.W.NumTemplates())
		series := experiments.Figure(crm, pair, experiments.FigureVariants(), p)
		if err := experiments.PrintSeries(out, "Monte-Carlo true Pr(CS) by optimizer-call budget:", series); err != nil {
			return err
		}
		writeCSV("fig4", func() error { return experiments.WriteSeriesCSV(csvDir, "fig4", series) })
		fmt.Fprintln(out)
	}
	if all || exp == "table2" {
		rows := experiments.MultiConfigAll(tpcd, p)
		if err := experiments.PrintMultiRows(out, "Table 2: Results for TPC-D workload (α=90%)", rows, p.Ks); err != nil {
			return err
		}
		writeCSV("table2", func() error { return experiments.WriteMultiCSV(csvDir, "table2", rows) })
		fmt.Fprintln(out)
	}
	if all || exp == "table3" {
		rows := experiments.MultiConfigAll(crm, p)
		if err := experiments.PrintMultiRows(out, "Table 3: Results for CRM workload (α=90%)", rows, p.Ks); err != nil {
			return err
		}
		writeCSV("table3", func() error { return experiments.WriteMultiCSV(csvDir, "table3", rows) })
		fmt.Fprintln(out)
	}
	if all || exp == "sec73" {
		rows, err := experiments.CompressionComparison(tpcd, p)
		if err != nil {
			return err
		}
		if err := experiments.PrintCompressionRows(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if all || exp == "clt" {
		sizes := []int{13_000, 131_000}
		var rows []experiments.CLTRow
		for _, n := range sizes {
			r, err := experiments.CLTRequirement(n, p.Seed+2)
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		if err := experiments.PrintCLTRows(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if all || exp == "elim" {
		k := p.Ks[len(p.Ks)-1]
		rows := experiments.EliminationAblation(tpcd, k, p)
		fmt.Fprintf(out, "Ablation: configuration elimination (k=%d)\n", k)
		printAblation(rows, "avg eliminated")
		fmt.Fprintln(out)
	}
	if all || exp == "stability" {
		k := p.Ks[0]
		rows := experiments.StabilityAblation(tpcd, k, p)
		fmt.Fprintf(out, "Ablation: Pr(CS) stability window (k=%d)\n", k)
		printAblation(rows, "")
		fmt.Fprintln(out)
	}
	if all || exp == "batching" {
		pair := experiments.HardPair(tpcd, p.Seed)
		row, err := experiments.BatchingComparison(tpcd, pair, p)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Related work: batching baseline ([17], Section 2)")
		fmt.Fprintf(out, "  batch size for ~normal batch means: %d → %d×%d = %d measurements\n",
			row.BatchSize, row.BatchSize, row.BatchesNeeded, row.TotalMeasurements)
		fmt.Fprintf(out, "  paper's primitive on the same selection: %d optimizer calls\n\n",
			row.PrimitiveCalls)
	}
	if all || exp == "scaling" {
		sizes := []int{p.TPCDQueries / 8, p.TPCDQueries / 4, p.TPCDQueries / 2, p.TPCDQueries}
		rows, err := experiments.Scaling(tpcd, sizes, p)
		if err != nil {
			return err
		}
		writeCSV("scaling", func() error { return experiments.WriteScalingCSV(csvDir, "scaling", rows) })
		fmt.Fprintln(out, "Scalability: adaptive primitive calls vs workload size (α=90%)")
		for _, r := range rows {
			fmt.Fprintf(out, "  N=%-6d calls=%-7.0f exhaustive=%-7d fraction=%.2f%%  true Pr(CS)=%.2f\n",
				r.N, r.AvgCalls, r.ExhaustiveCall, 100*r.Fraction, r.TruePrCS)
		}
		fmt.Fprintln(out)
	}
	if all || exp == "atoms" {
		ks := []int{50, 200, 500}
		rows, err := experiments.AtomSharing(tpcd, ks, p)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Atomic what-if sharing: call reduction on the Table 2 candidate spaces")
		fmt.Fprintln(out, "(full cost surface, direct vs atom-store oracle, bit-identical costs required)")
		for _, r := range rows {
			fmt.Fprintf(out, "  k=%-4d queries=%-5d pairs=%-8d direct=%-8d shared=%-7d reduction=%5.1fx  atoms=%-6d hits=%d\n",
				r.K, r.Queries, r.Pairs, r.DirectCalls, r.SharedCalls, r.Reduction, r.Atoms, r.AtomHits)
		}
		if jsonOut != "" {
			if err := experiments.WriteAtomsJSON(jsonOut, rows); err != nil {
				return err
			}
			fmt.Fprintf(out, "  wrote sharing curve to %s\n", jsonOut)
		}
		fmt.Fprintln(out)
	}
	if all || exp == "drift" {
		rows, err := experiments.Warmstart(p)
		if err != nil {
			return err
		}
		if err := experiments.PrintWarmstart(out, rows); err != nil {
			return err
		}
		if jsonOut != "" {
			if err := experiments.WriteWarmstartJSON(jsonOut, rows); err != nil {
				return err
			}
			fmt.Fprintf(out, "  wrote warm-start rows to %s\n", jsonOut)
		}
		fmt.Fprintln(out)
	}
	if all || exp == "rho" {
		rows, err := experiments.RhoSweep(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Ablation: ρ accuracy/overhead trade-off (σ²_max DP)")
		for _, r := range rows {
			fmt.Fprintf(out, "  ρ=%-5g σ̂²=%.5g θ=%.5g time=%v\n",
				r.Rho, r.Sigma2, r.Theta, r.Elapsed.Round(time.Microsecond))
		}
		fmt.Fprintln(out)
	}
	if !all {
		switch exp {
		case "table1", "fig1", "fig2", "fig3", "fig4", "table2", "table3", "sec73", "clt", "elim", "stability", "rho", "batching", "scaling", "atoms", "drift":
		default:
			return fmt.Errorf("unknown experiment %q", exp)
		}
	}
	return nil
}

func printAblation(rows []experiments.AblationRow, extra string) {
	for _, r := range rows {
		fmt.Printf("  %-22s true Pr(CS)=%.3f avg calls=%.0f", r.Setting, r.TruePrCS, r.AvgCalls)
		if extra != "" {
			fmt.Printf(" %s=%.1f", extra, r.AvgValue)
		}
		fmt.Println()
	}
}
