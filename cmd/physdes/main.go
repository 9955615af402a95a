// Command physdes explores physical database designs with the paper's
// probabilistic comparison primitive.
//
// Subcommands:
//
//	physdes gen     -db tpcd|crm -n 13000 -seed 1 -out workload.jsonl
//	physdes select  -db tpcd|crm -n 13000 -k 50 [-alpha .9] [-delta 0]
//	                [-scheme delta|independent] [-strat none|progressive|fine]
//	                [-conservative] [-trace events.jsonl] [-metrics] [-seed 1]
//	                [-timeout 30s] [-max-retries 3] [-listen 127.0.0.1:6060] [-report]
//	physdes explore -db tpcd|crm -n 2600 -k 20 [-seed 1]
//	physdes report  trace.jsonl|report.json
//
// gen writes a workload table to disk (the Section 5 preprocessing format);
// select runs the comparison primitive over a generated configuration space
// and reports the decision with its optimizer-call accounting; explore
// also prints the run's per-round Pr(CS) trajectory. On both,
// -trace writes a JSONL log of every sampling round, split, elimination
// and allocation decision, and -metrics prints the run's counters
// (optimizer calls and latency, sampler activity) in Prometheus text
// format. -listen serves live introspection over HTTP (health, metrics,
// pprof, and an SSE stream of round events) while the run is in flight;
// report renders a recorded trace (or a saved RunReport) as a
// deterministic convergence report, and -report prints the same for the
// run just finished. An interrupt (Ctrl-C) cancels the selection,
// prints the partial progress, and flushes the trace.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"physdes"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "select":
		err = cmdSelect(os.Args[2:], false)
	case "explore":
		err = cmdSelect(os.Args[2:], true)
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "tune":
		err = cmdTune(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "physdes: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "physdes:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  physdes gen     -db tpcd|crm -n N -seed S -out FILE
  physdes select  -db tpcd|crm -n N -k K [-alpha A] [-delta D]
                  [-scheme delta|independent] [-strat none|progressive|fine]
                  [-conservative] [-trace FILE] [-metrics]
                  [-timeout DUR] [-max-retries R] [-listen ADDR] [-report]
                [-warm-state FILE] [-seed S]
  physdes explore -db tpcd|crm -n N -k K [-trace FILE] [-metrics] [-seed S]
  physdes explain -db tpcd|crm -q "SELECT ..." [-config rec.json]
  physdes tune    -db tpcd|crm -n N [-mode sampled|exhaustive] [-max M]
                  [-out rec.json] [-seed S]
  physdes compare -db tpcd|crm -a cur.json -b new.json [-alpha A] [-delta-frac F]
                  [-workload FILE | -n N] [-seed S]
  physdes submit  -server URL [-tenant T] -db tpcd|crm -n N -k K [-seed S]
                  [-alpha A] [-scheme SCH] [-strat ST]
                  [-conservative] [-follow] [-wait=false]
  physdes report  trace.jsonl|report.json`)
}

func buildWorkload(db string, n int, seed uint64) (*physdes.Catalog, *physdes.Workload, error) {
	switch db {
	case "tpcd":
		cat := physdes.TPCDCatalog(1)
		w, err := physdes.GenTPCD(cat, n, seed)
		return cat, w, err
	case "crm":
		cat := physdes.CRMCatalog()
		w, err := physdes.GenCRM(cat, n, seed)
		return cat, w, err
	}
	return nil, nil, fmt.Errorf("unknown database %q (want tpcd or crm)", db)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	db := fs.String("db", "tpcd", "database: tpcd or crm")
	n := fs.Int("n", 13_000, "workload size")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "workload.jsonl", "output workload table")
	fs.Parse(args)

	_, w, err := buildWorkload(*db, *n, *seed)
	if err != nil {
		return err
	}
	if err := physdes.SaveWorkload(w, *out); err != nil {
		return err
	}
	kinds := w.KindCounts()
	fmt.Printf("wrote %d statements (%d templates) to %s\n", w.Size(), w.NumTemplates(), *out)
	for _, k := range []string{"SELECT", "INSERT", "UPDATE", "DELETE"} {
		if kinds[k] > 0 {
			fmt.Printf("  %-6s %d\n", k, kinds[k])
		}
	}
	return nil
}

// loadWorkloadFile reads statements from a workload table (.jsonl written
// by `physdes gen` / wlgen) or a plain SQL file (one statement per line)
// and parses them against the catalog.
func loadWorkloadFile(cat *physdes.Catalog, path string) (*physdes.Workload, error) {
	if strings.HasSuffix(path, ".jsonl") {
		st, err := physdes.OpenWorkloadStore(path)
		if err != nil {
			return nil, err
		}
		ids := make([]int, st.Size())
		for i := range ids {
			ids[i] = i
		}
		sqls, err := st.ReadQueries(ids)
		if err != nil {
			return nil, err
		}
		return physdes.ParseWorkload(cat, sqls)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Semicolon-terminated scripts may span lines; without semicolons each
	// non-comment line is one statement.
	if strings.Contains(string(raw), ";") {
		return physdes.ParseWorkload(cat, physdes.SplitScript(string(raw)))
	}
	var sqls []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		sqls = append(sqls, line)
	}
	return physdes.ParseWorkload(cat, sqls)
}

// cmdCompare answers the DBA's question: is configuration B really better
// than configuration A on this workload — with probability α, and by more
// than a δ worth acting on? ("the overhead of changing the physical
// database design is justified only when the new configuration is
// significantly better", Section 3.)
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	db := fs.String("db", "tpcd", "database: tpcd or crm")
	aFile := fs.String("a", "", "JSON configuration A (e.g. the current design)")
	bFile := fs.String("b", "", "JSON configuration B (e.g. the proposed design)")
	workloadFile := fs.String("workload", "", "load the workload from a .jsonl table or SQL file")
	n := fs.Int("n", 2_600, "generated workload size when -workload is absent")
	alpha := fs.Float64("alpha", 0.9, "target probability of correct selection")
	deltaFrac := fs.Float64("delta-frac", 0.01, "sensitivity δ as a fraction of A's estimated cost")
	seed := fs.Uint64("seed", 1, "random seed")
	fs.Parse(args)
	if *aFile == "" || *bFile == "" {
		return fmt.Errorf("compare: -a and -b are required")
	}

	cat, w, err := buildWorkload(*db, *n, *seed)
	if err != nil {
		return err
	}
	if *workloadFile != "" {
		w, err = loadWorkloadFile(cat, *workloadFile)
		if err != nil {
			return err
		}
	}
	loadCfg := func(path string) (*physdes.Configuration, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var cfg physdes.Configuration
		if err := json.Unmarshal(data, &cfg); err != nil {
			return nil, err
		}
		return &cfg, nil
	}
	cfgA, err := loadCfg(*aFile)
	if err != nil {
		return err
	}
	cfgB, err := loadCfg(*bFile)
	if err != nil {
		return err
	}

	opt := physdes.NewOptimizer(cat)
	// Scale δ from a small pilot estimate of A's total cost.
	var pilot float64
	pn := 30
	if pn > w.Size() {
		pn = w.Size()
	}
	for i := 0; i < pn; i++ {
		pilot += opt.Cost(w.Queries[i].Analysis, cfgA)
	}
	delta := *deltaFrac * pilot / float64(pn) * float64(w.Size())

	o := physdes.DefaultOptions(*seed + 9)
	o.Alpha = *alpha
	o.Delta = delta
	sel, err := physdes.Select(opt, w, []*physdes.Configuration{cfgA, cfgB}, o)
	if err != nil {
		return err
	}
	names := []string{*aFile, *bFile}
	fmt.Printf("winner: %s (configuration %q)\n", names[sel.BestIndex], sel.Best.Name())
	fmt.Printf("Pr(CS) = %.3f at δ = %.3g (%.1f%% of A's estimated cost)\n",
		sel.PrCS, delta, 100**deltaFrac)
	fmt.Printf("sampled %d of %d queries; %d optimizer calls (exhaustive: %d)\n",
		sel.SampledQueries, w.Size(), sel.OptimizerCalls, sel.ExhaustiveCalls)
	if sel.BestIndex == 0 {
		fmt.Println("verdict: keep the current design — the proposal is not significantly better.")
		return nil
	}
	fmt.Println("verdict: the proposed design is significantly better. To migrate:")
	build, drop := physdes.DiffConfigurations(cfgA, cfgB)
	for _, s := range build {
		fmt.Printf("  CREATE %s%c", s.ID(), 10)
	}
	for _, s := range drop {
		fmt.Printf("  DROP   %s%c", s.ID(), 10)
	}
	return nil
}

// cmdTune runs the greedy physical-design advisor — by default the
// sampling-based variant whose every decision is the paper's comparison
// primitive.
func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	db := fs.String("db", "tpcd", "database: tpcd or crm")
	workloadFile := fs.String("workload", "", "load the workload from a .jsonl table or SQL file")
	n := fs.Int("n", 2_600, "workload size")
	mode := fs.String("mode", "sampled", "tuner mode: sampled or exhaustive")
	merged := fs.Bool("merged", false, "also enumerate merged index candidates")
	maxStructures := fs.Int("max", 6, "maximum structures to recommend")
	outFile := fs.String("out", "", "write the recommendation as JSON")
	seed := fs.Uint64("seed", 1, "random seed")
	fs.Parse(args)

	cat, w, err := buildWorkload(*db, *n, *seed)
	if err != nil {
		return err
	}
	if *workloadFile != "" {
		w, err = loadWorkloadFile(cat, *workloadFile)
		if err != nil {
			return err
		}
	}
	opt := physdes.NewOptimizer(cat)
	cands := physdes.EnumerateCandidates(cat, w, physdes.CandidateOptions{
		Covering: true, Views: *db == "tpcd", Merged: *merged,
	})
	fmt.Printf("workload: %d statements; %d candidate structures\n", w.Size(), len(cands))

	var cfg *physdes.Configuration
	var calls int64
	switch *mode {
	case "sampled":
		res, err := physdes.TuneGreedySampled(opt, w, cands, physdes.SampledTunerOptions{
			MaxStructures: *maxStructures, Seed: *seed + 3,
		})
		if err != nil {
			return err
		}
		cfg, calls = res.Config, res.OptimizerCalls
		for i, step := range res.Steps {
			if step.Chosen == "" {
				fmt.Printf("  round %d: stop (Pr(CS)=%.2f)\n", i+1, step.PrCS)
				continue
			}
			fmt.Printf("  round %d: add %s (Pr(CS)=%.2f, %d calls)\n",
				i+1, step.Chosen, step.PrCS, step.Calls)
		}
	case "exhaustive":
		res := physdes.TuneGreedy(opt, cat, w, nil, cands,
			physdes.TunerOptions{MaxStructures: *maxStructures})
		cfg, calls = res.Config, res.OptimizerCalls
	default:
		return fmt.Errorf("unknown tuner mode %q", *mode)
	}

	imp := physdes.EvaluateImprovement(physdes.NewOptimizer(cat), w, cfg)
	fmt.Printf("\nrecommendation: %d structures, workload improvement %.1f%%, %d optimizer calls\n",
		cfg.NumStructures(), 100*imp, calls)
	for _, s := range cfg.Structures() {
		fmt.Printf("  %s\n", s.ID())
	}
	if *outFile != "" {
		data, err := json.MarshalIndent(cfg, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, append(data, byte(10)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote recommendation to %s\n", *outFile)
	}
	return nil
}

// cmdExplain prints the cost model's chosen plan for one statement under
// the empty configuration and, when -config names a JSON recommendation
// (written by `select -out`), under that configuration.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	db := fs.String("db", "tpcd", "database: tpcd or crm")
	q := fs.String("q", "", "SQL statement to explain (required)")
	configFile := fs.String("config", "", "JSON configuration to explain under")
	fs.Parse(args)
	if *q == "" {
		return fmt.Errorf("explain: -q is required")
	}

	var cat *physdes.Catalog
	switch *db {
	case "tpcd":
		cat = physdes.TPCDCatalog(1)
	case "crm":
		cat = physdes.CRMCatalog()
	default:
		return fmt.Errorf("unknown database %q", *db)
	}
	w, err := physdes.ParseWorkload(cat, []string{*q})
	if err != nil {
		return err
	}
	opt := physdes.NewOptimizer(cat)

	empty := physdes.NewConfiguration("empty")
	fmt.Println("plan under the empty configuration:")
	fmt.Print(physdes.Explain(opt, w.Queries[0], empty))

	if *configFile != "" {
		data, err := os.ReadFile(*configFile)
		if err != nil {
			return err
		}
		var cfg physdes.Configuration
		if err := json.Unmarshal(data, &cfg); err != nil {
			return err
		}
		fmt.Printf("\nplan under %s:\n", cfg.Name())
		fmt.Print(physdes.Explain(opt, w.Queries[0], &cfg))
	}
	return nil
}

func cmdSelect(args []string, explore bool) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	db := fs.String("db", "tpcd", "database: tpcd or crm")
	workloadFile := fs.String("workload", "", "load the workload from a .jsonl table or SQL file instead of generating it")
	n := fs.Int("n", 2_600, "workload size")
	k := fs.Int("k", 20, "number of candidate configurations")
	alpha := fs.Float64("alpha", 0.9, "target probability of correct selection")
	delta := fs.Float64("delta", 0, "cost sensitivity δ")
	scheme := fs.String("scheme", "delta", "sampling scheme: delta or independent")
	strat := fs.String("strat", "progressive", "stratification: none, progressive or fine")
	conservative := fs.Bool("conservative", false, "enable Section 6 conservative bounds")
	outFile := fs.String("out", "", "write the selected configuration as JSON")
	traceFile := fs.String("trace", "", "write structured JSONL selection events to this file")
	metrics := fs.Bool("metrics", false, "print the metrics snapshot (Prometheus text format) after the run")
	timeout := fs.Duration("timeout", 0, "abort the selection after this wall-clock duration (0: no limit)")
	maxRetries := fs.Int("max-retries", 0, "re-attempt failed what-if probes this many times (fallible oracles only)")
	listen := fs.String("listen", "", "serve live introspection HTTP on this address (/healthz, /metrics, /runs, SSE) and keep serving after the run until interrupted")
	report := fs.Bool("report", false, "print the flight recorder's convergence report after the run")
	warmStateFile := fs.String("warm-state", "", "snapshot file: seed the selection from it when it exists, and (re)write this run's snapshot to it on success")
	seed := fs.Uint64("seed", 1, "random seed")
	fs.Parse(args)

	// An interrupt (Ctrl-C / SIGTERM) cancels the selection between rounds;
	// the partial result is reported and the trace flushed before exit.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The run's flight recorder: it subscribes to the trace stream and
	// powers -report, the -listen endpoints, and the partial report printed
	// on interruption.
	rec := physdes.NewFlightRecorder("select")

	var reg *physdes.MetricsRegistry
	var srv *physdes.LiveServer
	if *listen != "" {
		// The introspection server needs a registry even without -metrics,
		// and comes up before the (potentially slow) workload build so
		// /healthz answers as soon as the process starts.
		reg = physdes.NewMetricsRegistry()
		reg.Gauge("physdes_up").Set(1)
		rec.WithMetrics(reg)
		srv = physdes.NewLiveServer(reg)
		srv.Register(rec)
		addr, err := srv.Start(*listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("introspection: http://%s (/healthz /metrics /runs/select/report /runs/select/events)\n", addr)
	}

	cat, w, err := buildWorkload(*db, *n, *seed)
	if err != nil {
		return err
	}
	if *workloadFile != "" {
		w, err = loadWorkloadFile(cat, *workloadFile)
		if err != nil {
			return err
		}
	}
	opt := physdes.NewOptimizer(cat)
	cands := physdes.EnumerateCandidates(cat, w, physdes.CandidateOptions{
		Covering: true, Views: *db == "tpcd",
	})
	configs := physdes.GenerateConfigurations(cat, cands, *k, *seed+1, physdes.SpaceOptions{
		MinStructures: 3, MaxStructures: 10,
	})
	if len(configs) < 2 {
		return fmt.Errorf("only %d configurations generated", len(configs))
	}
	fmt.Printf("workload: %d statements, %d templates; %d candidate structures; k=%d configurations\n",
		w.Size(), w.NumTemplates(), len(cands), len(configs))

	o := physdes.DefaultOptions(*seed + 2)
	o.Alpha = *alpha
	o.Delta = *delta
	o.Conservative = *conservative
	switch *scheme {
	case "delta":
		o.Scheme = physdes.DeltaSampling
	case "independent":
		o.Scheme = physdes.IndependentSampling
	default:
		return fmt.Errorf("unknown scheme %q", *scheme)
	}
	switch *strat {
	case "none":
		o.Strat = physdes.NoStratification
	case "progressive":
		o.Strat = physdes.ProgressiveStratification
	case "fine":
		o.Strat = physdes.FineStratification
	default:
		return fmt.Errorf("unknown stratification %q", *strat)
	}

	if *metrics && reg == nil {
		reg = physdes.NewMetricsRegistry()
		rec.WithMetrics(reg)
	}
	if reg != nil {
		o.Metrics = reg
	}
	// The tracer fans out to the flight recorder and, with -trace, a JSONL
	// file sink.
	sinks := []physdes.TraceSink{rec}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		sinks = append(sinks, physdes.NewJSONLSink(f))
	}
	o.Tracer = physdes.NewTracerSinks(sinks...)

	if *warmStateFile != "" {
		o.CaptureState = true
		if _, statErr := os.Stat(*warmStateFile); statErr == nil {
			st, err := physdes.LoadWarmState(*warmStateFile)
			if err != nil {
				return fmt.Errorf("warm state %s: %w", *warmStateFile, err)
			}
			o.WarmState = st
			fmt.Printf("warm state: loaded %s\n", *warmStateFile)
		}
	}

	o.MaxRetries = *maxRetries
	ctx := sigCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sel, err := physdes.SelectCtx(ctx, opt, w, configs, o)
	rec.Finish(err)
	if flushErr := o.Tracer.Flush(); flushErr != nil && err == nil {
		return fmt.Errorf("trace: %w", flushErr)
	}
	if err != nil {
		if ctx.Err() == nil {
			return err
		}
		// Cancelled (signal or -timeout): surface the partial progress the
		// recorder accumulated before bailing out.
		fmt.Println("\nselection interrupted; partial progress:")
		if werr := physdes.WriteRunReport(os.Stdout, rec.Report()); werr != nil {
			return werr
		}
		if sigCtx.Err() != nil {
			return fmt.Errorf("selection cancelled by signal: %w", err)
		}
		return fmt.Errorf("selection aborted by -timeout %v: %w", *timeout, err)
	}

	fmt.Printf("\nselected: %s  (Pr(CS) = %.3f ≥ α = %.2f)\n", sel.Best.Name(), sel.PrCS, *alpha)
	fmt.Printf("  structures: %d indexes, %d views\n", len(sel.Best.Indexes()), len(sel.Best.Views()))
	fmt.Printf("  sampled queries:  %d of %d\n", sel.SampledQueries, w.Size())
	fmt.Printf("  optimizer calls:  %d (exhaustive: %d — saved %.1f%%)\n",
		sel.OptimizerCalls, sel.ExhaustiveCalls, 100*sel.Savings())
	fmt.Printf("  strata: %d (splits: %d)\n", sel.Strata, sel.Splits)
	if *conservative {
		fmt.Printf("  conservative: σ²_max bound %.4g, CLT floor %d samples\n",
			sel.VarianceBound, sel.CLTMinSamples)
	}
	elim := 0
	for _, e := range sel.Eliminated {
		if e {
			elim++
		}
	}
	fmt.Printf("  eliminated early: %d of %d configurations\n", elim, len(configs))
	if sel.Warm.Started {
		fmt.Printf("  warm start: %d strata reused, %d known / %d fresh templates, %d pilot probes saved\n",
			sel.Warm.StrataReused, sel.Warm.TemplatesKnown, sel.Warm.TemplatesFresh, sel.Warm.PilotSaved)
	}
	if *warmStateFile != "" {
		if err := physdes.SaveWarmState(sel.State, *warmStateFile); err != nil {
			return fmt.Errorf("warm state %s: %w", *warmStateFile, err)
		}
		fmt.Printf("  wrote warm state to %s\n", *warmStateFile)
	}

	if *outFile != "" {
		data, err := json.MarshalIndent(sel.Best, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, append(data, byte(10)), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote recommendation to %s\n", *outFile)
	}

	if explore {
		fmt.Println("\nPr(CS) trace (every 10th round, after the pilot):")
		rounds := rec.Report().Rounds
		for i := 0; i < len(rounds); i += 10 {
			r := rounds[i]
			fmt.Printf("  round %4d (%5d samples): %.3f\n", r.Round, r.Samples, r.PrCS)
		}
	}
	if *traceFile != "" {
		fmt.Printf("  wrote trace to %s\n", *traceFile)
	}
	if *metrics {
		fmt.Println("\nmetrics:")
		if err := reg.WriteProm(os.Stdout); err != nil {
			return err
		}
	}
	if *report {
		fmt.Println("\nreport:")
		if err := physdes.WriteRunReport(os.Stdout, rec.Report()); err != nil {
			return err
		}
	}
	if *listen != "" && sigCtx.Err() == nil {
		fmt.Printf("\nrun complete; still serving introspection on -listen %s (Ctrl-C to exit)\n", *listen)
		<-sigCtx.Done()
	}
	return nil
}

// cmdReport renders a trace file (JSONL, as written by -trace) or a
// RunReport JSON document as a deterministic human-readable convergence
// report.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("report: want exactly one argument: a trace .jsonl or report .json file")
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := parseReportInput(data)
	if err != nil {
		return fmt.Errorf("report: %s: %w", path, err)
	}
	return physdes.WriteRunReport(os.Stdout, rep)
}

// parseReportInput accepts either a RunReport JSON document (one object,
// as served by /runs/{id}/report) or a JSONL trace. A whole-input parse
// distinguishes them: a trace is many objects (or a single object
// carrying the "ev" field), a report is one object without it.
func parseReportInput(data []byte) (*physdes.RunReport, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err == nil {
		if _, isEvent := probe["ev"]; !isEvent {
			var rep physdes.RunReport
			if err := json.Unmarshal(data, &rep); err != nil {
				return nil, err
			}
			return &rep, nil
		}
	}
	return physdes.ParseTraceReport(bytes.NewReader(data))
}
