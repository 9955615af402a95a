package recorder

import (
	"fmt"
	"io"
	"strings"
)

// WriteText renders a RunReport as a deterministic human-readable
// convergence report: run status and protocol parameters, the decision,
// where the oracle budget went, the stratification, and a per-round
// Pr(CS) trajectory table. Output depends only on the report contents,
// so rendering the same trace twice is byte-identical.
func WriteText(w io.Writer, rep *RunReport) error {
	var b strings.Builder

	fmt.Fprintf(&b, "run %s  status=%s", rep.ID, rep.Status)
	if rep.Error != "" {
		fmt.Fprintf(&b, "  error=%q", rep.Error)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "protocol: scheme=%s strat=%s n=%d k=%d alpha=%s delta=%s",
		orDash(rep.Scheme), orDash(rep.Strat), rep.N, rep.K, ftoa(rep.Alpha), ftoa(rep.Delta))
	if rep.Conservative {
		b.WriteString(" conservative")
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "decision: best=%d prcs=%s samples=%d/%d rounds=%d\n",
		rep.Best, ftoa(rep.PrCS), rep.Samples, rep.N, len(rep.Rounds))

	if rep.VarianceBound > 0 || rep.CLTMinSamples > 0 {
		fmt.Fprintf(&b, "bounds: variance_bound=%s clt_min_samples=%d\n",
			ftoa(rep.VarianceBound), rep.CLTMinSamples)
	}

	writeOracle(&b, rep)

	if rep.Cache != nil {
		fmt.Fprintf(&b, "cache: atom_hits=%d atoms=%d atom_reuse=%.1f%%\n",
			rep.Cache.AtomHits, rep.Cache.Atoms, 100*rep.Cache.HitRate)
	}

	writeStrata(&b, rep)
	writePhases(&b, rep)
	writeRounds(&b, rep)

	_, err := io.WriteString(w, b.String())
	return err
}

func writeOracle(b *strings.Builder, rep *RunReport) {
	o := rep.Oracle
	fmt.Fprintf(b, "oracle: calls=%d", o.Calls)
	if o.Exhaustive > 0 {
		fmt.Fprintf(b, " exhaustive=%d", o.Exhaustive)
	}
	if o.Retries > 0 || o.Faults > 0 || o.DegradedQueries > 0 {
		fmt.Fprintf(b, " retries=%d faults=%d degraded=%d", o.Retries, o.Faults, o.DegradedQueries)
	}
	b.WriteByte('\n')

	// Budget breakdown: pilot.done and derive_bounds.end record cumulative
	// call counts, so the per-phase spend is the deltas between them.
	if o.PilotCalls > 0 || o.BoundsCalls > 0 {
		bounds := o.BoundsCalls
		pilot := o.PilotCalls - o.BoundsCalls
		rounds := o.Calls - o.PilotCalls
		if pilot < 0 {
			pilot = o.PilotCalls
		}
		if rounds < 0 {
			rounds = 0
		}
		fmt.Fprintf(b, "budget: bounds=%d pilot=%d rounds=%d\n", bounds, pilot, rounds)
	}
}

func writeStrata(b *strings.Builder, rep *RunReport) {
	if rep.Strata > 0 || rep.SplitCount > 0 || rep.PilotStrata > 0 {
		fmt.Fprintf(b, "strata: final=%d pilot=%d splits=%d pilot_samples=%d\n",
			rep.Strata, rep.PilotStrata, rep.SplitCount, rep.PilotSamples)
	}
	if len(rep.Allocs) == 0 {
		return
	}
	b.WriteString("allocation (samples per stratum):\n")
	for _, a := range rep.Allocs {
		fmt.Fprintf(b, "  stratum %3d  %6d  %s\n", a.Stratum, a.Samples, bar(a.Samples, maxAlloc(rep.Allocs)))
	}
}

func writePhases(b *strings.Builder, rep *RunReport) {
	if len(rep.Phases) == 0 {
		return
	}
	b.WriteString("phases:\n")
	for _, p := range rep.Phases {
		fmt.Fprintf(b, "  %-13s %10.3f ms\n", p.Name, float64(p.DurUS)/1000)
	}
}

func writeRounds(b *strings.Builder, rep *RunReport) {
	if len(rep.Rounds) == 0 {
		return
	}
	fmt.Fprintf(b, "trajectory (%d rounds", len(rep.Rounds))
	stride := len(rep.Rounds)/40 + 1
	if stride > 1 {
		fmt.Fprintf(b, ", every %d", stride)
	}
	b.WriteString("):\n")
	b.WriteString("  round  samples   calls   alive  strata    prcs  best\n")
	for i, r := range rep.Rounds {
		if i%stride != 0 && i != len(rep.Rounds)-1 {
			continue
		}
		fmt.Fprintf(b, "  %5d  %7d  %6d  %6d  %6d  %s  %4d  %s\n",
			r.Round, r.Samples, r.Calls, r.Alive, r.Strata, pcell(r.PrCS), r.Best, bar(int(100*r.PrCS), 100))
	}
	if n := len(rep.Eliminations); n > 0 {
		fmt.Fprintf(b, "eliminations: %d\n", n)
	}
}

func maxAlloc(allocs []StratumAlloc) int {
	m := 1
	for _, a := range allocs {
		if a.Samples > m {
			m = a.Samples
		}
	}
	return m
}

// bar renders a fixed-width proportional bar (20 cells).
func bar(v, max int) string {
	if max <= 0 {
		max = 1
	}
	if v < 0 {
		v = 0
	}
	n := v * 20 / max
	if n > 20 {
		n = 20
	}
	return strings.Repeat("#", n) + strings.Repeat(".", 20-n)
}

// pcell formats a probability in a fixed-width cell.
func pcell(p float64) string { return fmt.Sprintf("%6.4f", p) }

// ftoa formats a float minimally (no trailing zeros) for one-line
// summaries; %v gives the shortest round-trip representation.
func ftoa(f float64) string { return fmt.Sprintf("%v", f) }

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
