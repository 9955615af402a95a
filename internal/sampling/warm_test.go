package sampling

import (
	"bytes"
	"reflect"
	"testing"

	"physdes/internal/stats"
	"physdes/internal/workload"
)

func sigsFor(templates int) []TemplateSig {
	sigs := make([]TemplateSig, templates)
	for t := range sigs {
		sigs[t].ID = uint64(t + 101)
		m := ParamMoment{}
		for i := 0; i < 5; i++ {
			m.Observe(float64(t*10 + i))
		}
		sigs[t].Params = []ParamMoment{m}
	}
	return sigs
}

func fpsFor(k int) []string {
	fps := make([]string, k)
	for j := range fps {
		fps[j] = string(rune('A' + j))
	}
	return fps
}

func warmOpts(seed uint64, tmpls workload.Partition, k int) Options {
	return Options{
		Scheme:             Delta,
		Strat:              Progressive,
		Alpha:              0.9,
		RNG:                stats.NewRNG(seed),
		Templates:          tmpls,
		TemplateSigs:       sigsFor(len(tmpls.Members)),
		ConfigFingerprints: fpsFor(k),
		CaptureState:       true,
	}
}

func TestParamsChanged(t *testing.T) {
	moment := func(xs ...float64) ParamMoment {
		var m ParamMoment
		for _, x := range xs {
			m.Observe(x)
		}
		return m
	}
	same := []ParamMoment{moment(1, 2, 3, 4, 5)}
	if paramsChanged(same, same) {
		t.Error("identical moments flagged as changed")
	}
	if !paramsChanged(same, nil) {
		t.Error("arity change not flagged")
	}
	if !paramsChanged(same, []ParamMoment{moment(100, 101, 102, 103)}) {
		t.Error("large mean shift not flagged")
	}
	// Too few observations on one side: inconclusive, not changed.
	if paramsChanged(same, []ParamMoment{moment(999)}) {
		t.Error("N<2 prior must stay inconclusive")
	}
	// Zero variance on both sides: any difference is a change.
	if !paramsChanged([]ParamMoment{moment(5, 5, 5)}, []ParamMoment{moment(6, 6, 6)}) {
		t.Error("constant-shift with zero variance not flagged")
	}
	if paramsChanged([]ParamMoment{moment(5, 5, 5)}, []ParamMoment{moment(5, 5)}) {
		t.Error("identical constants flagged as changed")
	}
}

func TestMarshalCanonicalRoundTrip(t *testing.T) {
	st := &StratState{
		Version:        stratStateVersion,
		Scheme:         "delta",
		Strat:          "progressive",
		K:              2,
		Configs:        []string{"A", "B"},
		Incumbent:      "A",
		Best:           0,
		SampledQueries: 123,
		Templates: []TemplateState{{
			ID:     101,
			Params: []ParamMoment{{N: 5, Mean: 2.5, M2: 1.25}},
			Counts: []int{7, 7},
			Sum:    []stats.Kahan{{S: 10.5, C: 1e-17}, {S: 11.25, C: -3e-18}},
			Sumsq:  []stats.Kahan{{S: 100.25, C: 0}, {S: 130.0625, C: 2e-16}},
			Cross:  []stats.Kahan{{S: 105.125, C: 0}, {S: 0, C: 0}},
		}},
		Partitions: [][][]uint64{{{101}}},
	}
	data, err := st.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeStratState(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, dec) {
		t.Fatal("decode lost information")
	}
	again, err := dec.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encode not byte-identical:\n%s\nvs\n%s", data, again)
	}
	if data[len(data)-1] != '\n' {
		t.Error("canonical form must end in newline")
	}
}

// capture runs a cold, state-capturing selection and returns its result.
func captureRun(t *testing.T, seed uint64) (*Result, Options, *MatrixOracle) {
	t.Helper()
	m, tmpls := synthMatrix(3000, 3, 6, 0.08, 1, seed)
	o := warmOpts(seed, tmpls, 3)
	oracle := NewMatrixOracle(m)
	res, err := Run(oracle, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.State == nil {
		t.Fatal("CaptureState produced no snapshot")
	}
	return res, o, oracle
}

func TestPlanWarmDegradesToNil(t *testing.T) {
	res, o, _ := captureRun(t, 21)
	good := res.State
	opts := o.withDefaults()
	if planWarm(good, &opts, Delta, 3) == nil {
		t.Fatal("compatible snapshot rejected")
	}

	check := func(name string, st *StratState, scheme Scheme, k int) {
		t.Helper()
		if wr := planWarm(st, &opts, scheme, k); wr != nil {
			t.Errorf("%s: expected nil warm plan", name)
		}
	}
	check("nil state", nil, Delta, 3)
	check("empty state", &StratState{}, Delta, 3)

	bad := *good
	bad.Version = 99
	check("version mismatch", &bad, Delta, 3)

	bad = *good
	bad.Scheme = "independent"
	check("scheme mismatch", &bad, Delta, 3)

	bad = *good
	bad.Strat = "fine"
	check("strat mismatch", &bad, Delta, 3)

	bad = *good
	bad.Configs = []string{"A", "B", "Z"}
	check("missing fingerprint", &bad, Delta, 3)

	bad = *good
	bad.Partitions = nil
	check("partition shape", &bad, Delta, 3)

	// Options missing template signatures: cold.
	noSigs := opts
	noSigs.TemplateSigs = nil
	if planWarm(good, &noSigs, Delta, 3) != nil {
		t.Error("missing TemplateSigs: expected nil warm plan")
	}

	// All template IDs unknown: cold.
	bad = *good
	bad.Templates = append([]TemplateState(nil), good.Templates...)
	for i := range bad.Templates {
		bad.Templates[i].ID = uint64(9000 + i)
	}
	check("no known templates", &bad, Delta, 3)
}

func TestWarmEmptyStateBitIdentity(t *testing.T) {
	for _, scheme := range []Scheme{Delta, Independent} {
		m, tmpls := synthMatrix(2500, 3, 6, 0.08, 1, 31)
		cold := warmOpts(31, tmpls, 3)
		cold.Scheme = scheme
		resCold, err := Run(NewMatrixOracle(m), cold)
		if err != nil {
			t.Fatal(err)
		}
		warm := warmOpts(31, tmpls, 3)
		warm.Scheme = scheme
		warm.WarmState = &StratState{}
		resWarm, err := Run(NewMatrixOracle(m), warm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resCold, resWarm) {
			t.Errorf("%v: empty warm state not bit-identical to cold", scheme)
		}
	}
}

func TestWarmRerunSavesCalls(t *testing.T) {
	for _, scheme := range []Scheme{Delta, Independent} {
		m, tmpls := synthMatrix(3000, 3, 6, 0.08, 1, 41)
		cold := warmOpts(41, tmpls, 3)
		cold.Scheme = scheme
		resCold, err := Run(NewMatrixOracle(m), cold)
		if err != nil {
			t.Fatal(err)
		}
		warm := warmOpts(43, tmpls, 3)
		warm.Scheme = scheme
		warm.WarmState = resCold.State
		resWarm, err := Run(NewMatrixOracle(m), warm)
		if err != nil {
			t.Fatal(err)
		}
		if !resWarm.Warm.Started {
			t.Fatalf("%v: warm start did not engage", scheme)
		}
		if resWarm.Warm.TemplatesKnown == 0 || resWarm.Warm.StrataReused == 0 {
			t.Errorf("%v: nothing reused: %+v", scheme, resWarm.Warm)
		}
		if resWarm.Best != resCold.Best {
			t.Errorf("%v: warm selected %d, cold %d", scheme, resWarm.Best, resCold.Best)
		}
		if resWarm.OptimizerCalls*2 > resCold.OptimizerCalls {
			t.Errorf("%v: warm rerun used %d calls vs cold %d (want ≥2× reduction)",
				scheme, resWarm.OptimizerCalls, resCold.OptimizerCalls)
		}
		// The rerun's own snapshot is fresh-only: its tallies must not
		// exceed what the warm run itself sampled.
		if resWarm.State == nil {
			t.Fatalf("%v: warm rerun captured no state", scheme)
		}
		total := 0
		for _, ts := range resWarm.State.Templates {
			for _, c := range ts.Counts {
				if c > total {
					total = c
				}
			}
		}
		if total > resWarm.SampledQueries {
			t.Errorf("%v: captured tallies (%d) exceed fresh samples (%d): prior leaked into snapshot",
				scheme, total, resWarm.SampledQueries)
		}
	}
}

func TestWarmDriftedTemplateRepiloted(t *testing.T) {
	res, o, _ := captureRun(t, 51)
	// Shift template 0's parameter distribution far beyond 3σ.
	warm := o
	warm.RNG = stats.NewRNG(53)
	warm.WarmState = res.State
	warm.TemplateSigs = sigsFor(6)
	var m ParamMoment
	for i := 0; i < 5; i++ {
		m.Observe(1e6 + float64(i))
	}
	warm.TemplateSigs[0].Params = []ParamMoment{m}
	mtx, tmpls := synthMatrix(3000, 3, 6, 0.08, 1, 51)
	warm.Templates = tmpls
	resWarm, err := Run(NewMatrixOracle(mtx), warm)
	if err != nil {
		t.Fatal(err)
	}
	if !resWarm.Warm.Started {
		t.Fatal("warm start did not engage")
	}
	if resWarm.Warm.TemplatesFresh == 0 {
		t.Error("drifted template was not re-piloted")
	}
	if resWarm.Warm.TemplatesKnown != 5 {
		t.Errorf("TemplatesKnown = %d, want 5", resWarm.Warm.TemplatesKnown)
	}
}

func TestWarmInfoCountersOnColdRun(t *testing.T) {
	res, _, _ := captureRun(t, 61)
	if res.Warm.Started || res.Warm.StrataReused != 0 || res.Warm.PilotSaved != 0 {
		t.Errorf("cold run reported warm info: %+v", res.Warm)
	}
}
