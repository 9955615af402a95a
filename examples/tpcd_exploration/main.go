// TPC-D exploration: a DBA-style interactive-exploration session. A
// physical design tool has enumerated dozens of candidate configurations;
// the comparison primitive finds the best one cheaply, eliminating clearly
// inferior candidates early and stratifying the workload by query template
// as it learns the cost structure.
package main

import (
	"fmt"
	"log"
	"strings"

	"physdes"
)

func main() {
	cat := physdes.TPCDCatalog(1)
	wl, err := physdes.GenTPCD(cat, 13_000, 1)
	if err != nil {
		log.Fatal(err)
	}
	opt := physdes.NewOptimizer(cat)
	fmt.Printf("workload: %d queries, %d templates\n", wl.Size(), wl.NumTemplates())

	// Candidate structures a tuning tool would derive from the workload,
	// and a space of k=25 candidate configurations.
	cands := physdes.EnumerateCandidates(cat, wl, physdes.CandidateOptions{Covering: true, Views: true})
	configs := physdes.GenerateConfigurations(cat, cands, 25, 3, physdes.SpaceOptions{
		MinStructures: 3, MaxStructures: 10,
	})
	fmt.Printf("candidates: %d structures → %d configurations\n\n", len(cands), len(configs))

	// Explore: α=90%, with a flight recorder keeping the per-round Pr(CS)
	// trajectory for inspection.
	rec := physdes.NewFlightRecorder("explore")
	o := physdes.DefaultOptions(5)
	o.Tracer = physdes.NewTracerSinks(rec)
	sel, err := physdes.Select(opt, wl, configs, o)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("best configuration: %s (Pr(CS)=%.3f)\n", sel.Best.Name(), sel.PrCS)
	for _, ix := range sel.Best.Indexes() {
		fmt.Printf("  index  %s\n", ix)
	}
	for _, v := range sel.Best.Views() {
		fmt.Printf("  view   %s\n", v)
	}

	elim := 0
	for _, e := range sel.Eliminated {
		if e {
			elim++
		}
	}
	fmt.Printf("\neliminated early: %d of %d configurations\n", elim, len(configs))
	fmt.Printf("strata: %d (%d progressive splits)\n", sel.Strata, sel.Splits)
	fmt.Printf("calls: %d of %d exhaustive (%.1f%% saved)\n",
		sel.OptimizerCalls, sel.ExhaustiveCalls, 100*sel.Savings())

	fmt.Println("\nPr(CS) evolution (round, queries sampled so far):")
	rounds := rec.Report().Rounds
	step := max(len(rounds)/12, 1)
	for i := 0; i < len(rounds); i += step {
		r := rounds[i]
		fmt.Printf("  %4d %6d %-40s %.3f\n", r.Round, r.Samples, strings.Repeat("#", int(r.PrCS*40)), r.PrCS)
	}

	// Why does the winner win? Explain a join query under the empty
	// configuration and under the selected one.
	for _, q := range wl.Queries {
		if len(q.Analysis.Tables) >= 2 {
			fmt.Printf("\nexample query: %s\n", q.SQL)
			fmt.Println("plan without any structures:")
			fmt.Print(physdes.Explain(opt, q, physdes.NewConfiguration("empty")))
			fmt.Printf("plan under %s:\n", sel.Best.Name())
			fmt.Print(physdes.Explain(opt, q, sel.Best))
			break
		}
	}
}
