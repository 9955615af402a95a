package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"physdes/internal/obs"
	"physdes/internal/obs/recorder"
	"physdes/internal/optimizer"
)

// trajectory returns rec's per-round Pr(CS) trajectory with wall-clock
// timestamps zeroed, so the trajectories of separate runs compare by value.
func trajectory(rec *recorder.Recorder) []recorder.Round {
	rounds := rec.Report().Rounds
	for i := range rounds {
		rounds[i].TSUS = 0
	}
	return rounds
}

// TestSelectObservability runs the primitive with the full observability
// stack and checks the contract: one round event per sampling round with
// round index, cumulative optimizer calls and Pr(CS), each folded into one
// flight-recorder round; a select span; and a metrics snapshot whose
// optimizer_calls_total matches both Optimizer.Calls() and
// Selection.OptimizerCalls.
func TestSelectObservability(t *testing.T) {
	opt, w, space := scenario(t, 400, 3, 5)

	var buf bytes.Buffer
	reg := obs.NewRegistry()
	flight := recorder.New("select")
	o := DefaultOptions(11)
	o.Tracer = obs.NewTracerSinks(obs.NewJSONLSink(&buf), flight)
	o.Metrics = reg

	sel, err := Select(opt, w, space, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	var rounds, spansBegun, spansEnded int
	lastRound, lastCalls := 0.0, 0.0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL event %q: %v", sc.Text(), err)
		}
		switch rec["ev"] {
		case "round":
			rounds++
			r, okR := rec["round"].(float64)
			calls, okC := rec["calls"].(float64)
			prcs, okP := rec["prcs"].(float64)
			if !okR || !okC || !okP {
				t.Fatalf("round event missing fields: %v", rec)
			}
			if r != lastRound+1 {
				t.Fatalf("round index jumped from %v to %v", lastRound, r)
			}
			if calls < lastCalls {
				t.Fatalf("cumulative calls decreased: %v → %v", lastCalls, calls)
			}
			if prcs < 0 || prcs > 1 {
				t.Fatalf("Pr(CS) out of range: %v", prcs)
			}
			lastRound, lastCalls = r, calls
		case "select.begin":
			spansBegun++
		case "select.end":
			spansEnded++
			if rec["calls"] != float64(sel.OptimizerCalls) {
				t.Errorf("select.end calls = %v, want %d", rec["calls"], sel.OptimizerCalls)
			}
		}
	}
	if rounds == 0 {
		t.Fatal("no round events emitted")
	}
	if spansBegun != 1 || spansEnded != 1 {
		t.Fatalf("select span events: begin=%d end=%d, want 1/1", spansBegun, spansEnded)
	}
	// The JSONL stream and the flight recorder observe the same loop.
	if got := len(flight.Report().Rounds); rounds != got {
		t.Errorf("round events (%d) != recorder rounds (%d)", rounds, got)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["optimizer_calls_total"]; got != opt.Calls() {
		t.Errorf("optimizer_calls_total = %d, want Optimizer.Calls() = %d", got, opt.Calls())
	}
	if got := snap.Counters["optimizer_calls_total"]; got != sel.OptimizerCalls {
		t.Errorf("optimizer_calls_total = %d, want Selection.OptimizerCalls = %d", got, sel.OptimizerCalls)
	}
	if snap.Counters["sampling_samples_total"] == 0 {
		t.Error("sampling_samples_total not recorded")
	}
	if snap.Counters["sampling_rounds_total"] != int64(rounds) {
		t.Errorf("sampling_rounds_total = %d, want %d", snap.Counters["sampling_rounds_total"], rounds)
	}
	hist := snap.Histograms["optimizer_cost_seconds"]
	if hist.Count != sel.OptimizerCalls {
		t.Errorf("optimizer_cost_seconds count = %d, want %d", hist.Count, sel.OptimizerCalls)
	}
}

// TestSelectConservativeTraced checks the derive_bounds span and the DP
// timing metrics in conservative mode.
func TestSelectConservativeTraced(t *testing.T) {
	opt, w, space := scenario(t, 200, 3, 7)
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	o := DefaultOptions(17)
	o.Conservative = true
	o.Rho = 50
	o.Tracer = obs.NewTracer(&buf)
	o.Metrics = reg
	if _, err := Select(opt, w, space, o); err != nil {
		t.Fatal(err)
	}
	o.Tracer.Flush()
	out := buf.String()
	if !bytes.Contains([]byte(out), []byte(`"ev":"derive_bounds.begin"`)) ||
		!bytes.Contains([]byte(out), []byte(`"ev":"derive_bounds.end"`)) {
		t.Error("conservative mode did not emit the derive_bounds span")
	}
	snap := reg.Snapshot()
	foundDP := false
	for name := range snap.Histograms {
		if len(name) >= len("bounds_sigma_max_dp_seconds") &&
			name[:len("bounds_sigma_max_dp_seconds")] == "bounds_sigma_max_dp_seconds" {
			foundDP = true
		}
	}
	if !foundDP {
		t.Errorf("σ²_max DP timing not exported; histograms: %v", snap.Histograms)
	}
}

// TestSelectConservativeFallbackVisible checks that the σ²_max threshold
// fallback is reported: derive_bounds.end carries variance_fallback and
// bounds_sigma_max_fallback_total counts it. At ρ=50 the DP table is small
// enough to run; at ρ=0.001 the interval spread makes it too large.
func TestSelectConservativeFallbackVisible(t *testing.T) {
	opt, w, space := scenario(t, 200, 3, 7)
	for _, tc := range []struct {
		rho      float64
		fallback bool
	}{{50, false}, {1e-3, true}} {
		var buf bytes.Buffer
		reg := obs.NewRegistry()
		o := DefaultOptions(17)
		o.Conservative = true
		o.Rho = tc.rho
		o.Tracer = obs.NewTracer(&buf)
		o.Metrics = reg
		if _, err := Select(optimizerClone(opt), w, space, o); err != nil {
			t.Fatal(err)
		}
		o.Tracer.Flush()
		var end map[string]any
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			var ev map[string]any
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatal(err)
			}
			if ev["ev"] == "derive_bounds.end" {
				end = ev
			}
		}
		if end == nil {
			t.Fatalf("rho=%g: no derive_bounds.end event", tc.rho)
		}
		if got, ok := end["variance_fallback"].(bool); !ok || got != tc.fallback {
			t.Errorf("rho=%g: variance_fallback = %v, want %v", tc.rho, end["variance_fallback"], tc.fallback)
		}
		want := int64(0)
		if tc.fallback {
			want = 1
		}
		if got := reg.Snapshot().Counters["bounds_sigma_max_fallback_total"]; got != want {
			t.Errorf("rho=%g: bounds_sigma_max_fallback_total = %d, want %d", tc.rho, got, want)
		}
	}
}

// optimizerClone returns a fresh optimizer over the same catalog so two
// runs get identical costs with independent call accounting.
func optimizerClone(opt *optimizer.Optimizer) *optimizer.Optimizer {
	return optimizer.New(opt.Catalog())
}
