package recorder

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"physdes/internal/obs"
)

// feed replays a canned selection through a tracer with the recorder
// attached, exercising the live (KV) path end to end.
func feed(t *testing.T, rec *Recorder) *obs.Tracer {
	t.Helper()
	tr := obs.NewTracerSinks(rec)
	span := tr.Begin("select",
		obs.KV{Key: "n", Value: 100},
		obs.KV{Key: "k", Value: 3},
		obs.KV{Key: "scheme", Value: "delta"},
		obs.KV{Key: "strat", Value: "progressive"},
		obs.KV{Key: "alpha", Value: 0.9},
		obs.KV{Key: "delta", Value: 0.5},
		obs.KV{Key: "conservative", Value: true},
		obs.KV{Key: "parallelism", Value: 2})
	bspan := tr.Begin("derive_bounds", obs.KV{Key: "rho", Value: 0.05})
	bspan.End(
		obs.KV{Key: "variance_bound", Value: 123.5},
		obs.KV{Key: "clt_min_samples", Value: 30},
		obs.KV{Key: "calls", Value: int64(12)})
	tr.Emit("pilot.done",
		obs.KV{Key: "samples", Value: 10},
		obs.KV{Key: "calls", Value: int64(42)},
		obs.KV{Key: "strata", Value: 1})
	for round := 1; round <= 3; round++ {
		tr.Emit("round",
			obs.KV{Key: "round", Value: round},
			obs.KV{Key: "samples", Value: 10 + round},
			obs.KV{Key: "calls", Value: int64(42 + 3*round)},
			obs.KV{Key: "prcs", Value: 0.5 + 0.1*float64(round)},
			obs.KV{Key: "best", Value: 2},
			obs.KV{Key: "alive", Value: 3 - round/2},
			obs.KV{Key: "strata", Value: 1 + round/2},
			obs.KV{Key: "splits", Value: round / 2},
			obs.KV{Key: "stable", Value: 0})
		tr.Emit("alloc", obs.KV{Key: "stratum", Value: round % 2},
			obs.KV{Key: "stratum_n", Value: 4}, obs.KV{Key: "stratum_size", Value: 40})
	}
	tr.Emit("split",
		obs.KV{Key: "stratum", Value: 0},
		obs.KV{Key: "left_size", Value: 60},
		obs.KV{Key: "right_size", Value: 40},
		obs.KV{Key: "strata", Value: 2})
	tr.Emit("eliminate",
		obs.KV{Key: "config", Value: 0},
		obs.KV{Key: "pair_prcs", Value: 0.999},
		obs.KV{Key: "alive", Value: 2})
	span.End(
		obs.KV{Key: "best", Value: 2},
		obs.KV{Key: "prcs", Value: 0.93},
		obs.KV{Key: "sampled", Value: 13},
		obs.KV{Key: "calls", Value: int64(51)},
		obs.KV{Key: "exhaustive", Value: int64(300)},
		obs.KV{Key: "strata", Value: 2},
		obs.KV{Key: "splits", Value: 1},
		obs.KV{Key: "degraded", Value: 1},
		obs.KV{Key: "retries", Value: int64(4)},
		obs.KV{Key: "faults", Value: int64(5)})
	return tr
}

func TestRecorderMaterializesRunReport(t *testing.T) {
	rec := New("run-1")
	feed(t, rec)
	rep := rec.Report()

	if rep.ID != "run-1" || rep.Status != StatusDone {
		t.Fatalf("id/status = %q/%q", rep.ID, rep.Status)
	}
	if rep.Scheme != "delta" || rep.Strat != "progressive" || rep.N != 100 || rep.K != 3 {
		t.Errorf("protocol = %q %q n=%d k=%d", rep.Scheme, rep.Strat, rep.N, rep.K)
	}
	if !rep.Conservative || rep.Alpha != 0.9 || rep.Delta != 0.5 {
		t.Errorf("alpha/delta/conservative = %v/%v/%v", rep.Alpha, rep.Delta, rep.Conservative)
	}
	if rep.Best != 2 || rep.PrCS != 0.93 || rep.Samples != 13 {
		t.Errorf("decision = best %d prcs %v samples %d", rep.Best, rep.PrCS, rep.Samples)
	}
	if rep.VarianceBound != 123.5 || rep.CLTMinSamples != 30 {
		t.Errorf("bounds = %v/%d", rep.VarianceBound, rep.CLTMinSamples)
	}
	if rep.PilotSamples != 10 || rep.PilotStrata != 1 {
		t.Errorf("pilot = %d samples %d strata", rep.PilotSamples, rep.PilotStrata)
	}
	o := rep.Oracle
	if o.Calls != 51 || o.Exhaustive != 300 || o.PilotCalls != 42 || o.BoundsCalls != 12 {
		t.Errorf("oracle calls = %+v", o)
	}
	if o.Retries != 4 || o.Faults != 5 || o.DegradedQueries != 1 {
		t.Errorf("oracle resilience = %+v", o)
	}
	if rep.Strata != 2 || rep.SplitCount != 1 {
		t.Errorf("strata/splits = %d/%d", rep.Strata, rep.SplitCount)
	}
	if len(rep.Rounds) != 3 || rep.Rounds[2].PrCS != 0.8 || rep.Rounds[0].Round != 1 {
		t.Errorf("rounds = %+v", rep.Rounds)
	}
	if len(rep.Splits) != 1 || rep.Splits[0].LeftSize != 60 || rep.Splits[0].RightSize != 40 {
		t.Errorf("splits = %+v", rep.Splits)
	}
	if len(rep.Eliminations) != 1 || rep.Eliminations[0].PairPrCS != 0.999 {
		t.Errorf("eliminations = %+v", rep.Eliminations)
	}
	// Allocs: strata 1 (rounds 1, 3) and 0 (round 2), sorted by stratum.
	if len(rep.Allocs) != 2 || rep.Allocs[0].Stratum != 0 || rep.Allocs[0].Samples != 1 ||
		rep.Allocs[1].Stratum != 1 || rep.Allocs[1].Samples != 2 {
		t.Errorf("allocs = %+v", rep.Allocs)
	}
	var names []string
	for _, p := range rep.Phases {
		names = append(names, p.Name)
	}
	if got := strings.Join(names, ","); got != "derive_bounds,pilot,select" {
		t.Errorf("phases = %s", got)
	}
	if len(rep.Events) == 0 || rep.Events[0].Name != "select.begin" {
		t.Errorf("ring = %+v", rep.Events)
	}
}

func TestRecorderReportIsASnapshot(t *testing.T) {
	rec := New("snap")
	tr := obs.NewTracerSinks(rec)
	tr.Emit("round", obs.KV{Key: "round", Value: 1}, obs.KV{Key: "prcs", Value: 0.5})
	rep := rec.Report()
	tr.Emit("round", obs.KV{Key: "round", Value: 2}, obs.KV{Key: "prcs", Value: 0.6})
	if len(rep.Rounds) != 1 {
		t.Fatalf("snapshot grew: %d rounds", len(rep.Rounds))
	}
	if got := rec.Report(); len(got.Rounds) != 2 {
		t.Fatalf("live report has %d rounds, want 2", len(got.Rounds))
	}
}

func TestFinishStatuses(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, StatusDone},
		{context.Canceled, StatusCancelled},
		{context.DeadlineExceeded, StatusCancelled},
		{errors.New("oracle exploded"), StatusFailed},
	}
	for _, c := range cases {
		rec := New("x")
		rec.Finish(c.err)
		rep := rec.Report()
		if rep.Status != c.want {
			t.Errorf("Finish(%v): status %q, want %q", c.err, rep.Status, c.want)
		}
		if c.err != nil && rep.Error == "" {
			t.Errorf("Finish(%v): empty error", c.err)
		}
		if _, done, _ := rec.RoundsSince(0); !done {
			t.Errorf("Finish(%v): not done", c.err)
		}
	}
}

func TestSelectEndCompletesRun(t *testing.T) {
	rec := New("x")
	feed(t, rec)
	if _, done, _ := rec.RoundsSince(0); !done {
		t.Fatal("select.end should mark the run done without Finish")
	}
}

// TestRoundsSinceExactlyOnce drives a concurrent producer and several
// followers through the documented RoundsSince loop and checks every
// follower sees every round exactly once, in order.
func TestRoundsSinceExactlyOnce(t *testing.T) {
	const rounds, followers = 500, 4
	rec := New("x")
	tr := obs.NewTracerSinks(rec)

	var wg sync.WaitGroup
	got := make([][]int, followers)
	for f := 0; f < followers; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			idx := 0
			for {
				rs, done, changed := rec.RoundsSince(idx)
				for _, r := range rs {
					got[f] = append(got[f], r.Round)
				}
				idx += len(rs)
				if len(rs) == 0 {
					if done {
						return
					}
					<-changed
				}
			}
		}(f)
	}

	for i := 1; i <= rounds; i++ {
		tr.Emit("round", obs.KV{Key: "round", Value: i}, obs.KV{Key: "prcs", Value: 0.5})
	}
	rec.Finish(nil)
	wg.Wait()

	for f, seq := range got {
		if len(seq) != rounds {
			t.Fatalf("follower %d saw %d rounds, want %d", f, len(seq), rounds)
		}
		for i, r := range seq {
			if r != i+1 {
				t.Fatalf("follower %d: position %d holds round %d", f, i, r)
			}
		}
	}
}

func TestRingBounded(t *testing.T) {
	rec := New("x").WithRingSize(4)
	tr := obs.NewTracerSinks(rec)
	for i := 1; i <= 10; i++ {
		tr.Emit("round", obs.KV{Key: "round", Value: i})
	}
	ev := rec.Report().Events
	if len(ev) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := int64(7 + i); e.Seq != want {
			t.Errorf("ring[%d].Seq = %d, want %d (oldest evicted first)", i, e.Seq, want)
		}
	}
	if rec := New("y").WithRingSize(0); len(rec.Report().Events) != 0 {
		t.Error("zero ring should retain nothing")
	}
}

// TestCacheStatsFromRegistry pins RunReport.Cache to the atom store's
// reuse, atom_hits / (atom_hits + atoms): the optimizer's call counter in
// the same registry counts inner calls, not atom lookups, and must not
// mix in.
func TestCacheStatsFromRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("optimizer_atom_hits_total").Add(30)
	reg.Counter("optimizer_atoms_total").Add(70)
	reg.Counter("optimizer_calls_total").Add(500)
	rec := New("x").WithMetrics(reg)
	rep := rec.Report()
	if rep.Cache == nil || rep.Cache.AtomHits != 30 || rep.Cache.Atoms != 70 {
		t.Fatalf("cache = %+v", rep.Cache)
	}
	if rep.Cache.HitRate != 0.3 {
		t.Fatalf("hit rate = %v", rep.Cache.HitRate)
	}
	var b strings.Builder
	if err := WriteText(&b, rep); err != nil {
		t.Fatal(err)
	}
	if want := "cache: atom_hits=30 atoms=70 atom_reuse=30.0%\n"; !strings.Contains(b.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, b.String())
	}
	callsOnly := obs.NewRegistry()
	callsOnly.Counter("optimizer_calls_total").Add(3)
	for _, r := range []*obs.Registry{obs.NewRegistry(), callsOnly} {
		if rep := New("y").WithMetrics(r).Report(); rep.Cache != nil {
			t.Fatalf("registry without atom lookups yields cache stats %+v", rep.Cache)
		}
	}
}

func TestFromJSONLRoundTrip(t *testing.T) {
	// Render a live-fed report, serialize the same run as JSONL via the
	// tracer's JSONL sink, replay it, and compare the renderings: the two
	// paths share the state machine, so they must agree.
	live := New("trace")
	var buf bytes.Buffer
	tr := obs.NewTracerSinks(live, obs.NewJSONLSink(&buf))
	feedBoth(tr)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	replayed, err := FromJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteText(&a, live.Report()); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&b, replayed); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("live and replayed renderings differ:\n--- live ---\n%s--- replay ---\n%s", a.String(), b.String())
	}
}

// feedBoth is feed without the *testing.T plumbing (shared with the
// round-trip test that fans out to two sinks).
func feedBoth(tr *obs.Tracer) {
	span := tr.Begin("select",
		obs.KV{Key: "n", Value: 100}, obs.KV{Key: "k", Value: 3},
		obs.KV{Key: "scheme", Value: "delta"}, obs.KV{Key: "strat", Value: "none"},
		obs.KV{Key: "alpha", Value: 0.9}, obs.KV{Key: "delta", Value: 0.0},
		obs.KV{Key: "conservative", Value: false}, obs.KV{Key: "parallelism", Value: 1})
	tr.Emit("pilot.done", obs.KV{Key: "samples", Value: 10}, obs.KV{Key: "calls", Value: int64(30)})
	tr.Emit("round",
		obs.KV{Key: "round", Value: 1}, obs.KV{Key: "samples", Value: 11},
		obs.KV{Key: "calls", Value: int64(33)}, obs.KV{Key: "prcs", Value: 0.75},
		obs.KV{Key: "best", Value: 1}, obs.KV{Key: "alive", Value: 3},
		obs.KV{Key: "stable", Value: 0})
	tr.Emit("alloc", obs.KV{Key: "stratum", Value: 0})
	span.End(
		obs.KV{Key: "best", Value: 1}, obs.KV{Key: "prcs", Value: 0.91},
		obs.KV{Key: "sampled", Value: 11}, obs.KV{Key: "calls", Value: int64(33)},
		obs.KV{Key: "exhaustive", Value: int64(300)},
		obs.KV{Key: "strata", Value: 1}, obs.KV{Key: "splits", Value: 0},
		obs.KV{Key: "degraded", Value: 0},
		obs.KV{Key: "retries", Value: int64(0)}, obs.KV{Key: "faults", Value: int64(0)})
}

func TestFromJSONLPartialTrace(t *testing.T) {
	trace := `{"seq":1,"ts_us":2,"ev":"select.begin","n":50,"k":2,"scheme":"delta","strat":"none","alpha":0.9,"delta":0}
{"seq":2,"ts_us":90,"ev":"round","round":1,"samples":5,"calls":10,"prcs":0.6,"best":0,"alive":2,"stable":0}
`
	rep, err := FromJSONL(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusRunning {
		t.Fatalf("status = %q, want running (no select.end)", rep.Status)
	}
	if rep.PrCS != 0.6 || rep.Best != 0 || len(rep.Rounds) != 1 {
		t.Fatalf("partial report = %+v", rep)
	}
}

func TestFromJSONLErrors(t *testing.T) {
	if _, err := FromJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed line should error")
	}
	if _, err := FromJSONL(strings.NewReader(`{"seq":1}` + "\n")); err == nil {
		t.Error("missing ev field should error")
	}
	if rep, err := FromJSONL(strings.NewReader("\n\n")); err != nil || rep.Status != StatusRunning {
		t.Errorf("blank lines: rep=%+v err=%v", rep, err)
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	rec := New("det")
	feed(t, rec)
	rep := rec.Report()
	var a, b bytes.Buffer
	if err := WriteText(&a, rep); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&b, rep); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("renderings of the same report differ")
	}
	for _, want := range []string{"run det  status=done", "scheme=delta", "best=2", "budget:", "trajectory (3 rounds)", "eliminations: 1"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("report missing %q:\n%s", want, a.String())
		}
	}
}

func TestWriteTextLongTrajectoryStrides(t *testing.T) {
	rec := New("x")
	tr := obs.NewTracerSinks(rec)
	for i := 1; i <= 200; i++ {
		tr.Emit("round", obs.KV{Key: "round", Value: i}, obs.KV{Key: "prcs", Value: float64(i) / 200})
	}
	var b bytes.Buffer
	if err := WriteText(&b, rec.Report()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "200 rounds, every 6") {
		t.Fatalf("missing stride header:\n%s", out)
	}
	// The last round always renders even when off-stride.
	if !strings.Contains(out, "    200") {
		t.Fatalf("final round missing:\n%s", out)
	}
}
