package tuner

import (
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/compress"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

func setup(t *testing.T, n int, seed uint64) (*optimizer.Optimizer, *catalog.Catalog, *workload.Workload, []physical.Structure) {
	t.Helper()
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	analyses := w.Analyses()
	cands := physical.EnumerateCandidates(cat, analyses, physical.CandidateOptions{Covering: true, Views: true})
	return optimizer.New(cat), cat, w, cands
}

func TestGreedyImproves(t *testing.T) {
	opt, cat, w, cands := setup(t, 150, 1)
	res := Greedy(opt, cat, w, nil, cands, Options{MaxStructures: 6})
	if res.Improvement() <= 0 {
		t.Fatalf("no improvement: %+v", res)
	}
	if res.Config.NumStructures() == 0 {
		t.Fatal("empty recommendation despite improvement")
	}
	if res.TunedCost >= res.BaseCost {
		t.Error("tuned cost not below base")
	}
	if res.OptimizerCalls <= 0 {
		t.Error("optimizer calls not accounted")
	}
	t.Logf("improvement %.1f%% with %d structures (%d calls)",
		100*res.Improvement(), res.Config.NumStructures(), res.OptimizerCalls)
}

func TestGreedyRespectsBudget(t *testing.T) {
	opt, cat, w, cands := setup(t, 100, 2)
	budget := int64(500_000)
	res := Greedy(opt, cat, w, nil, cands, Options{BudgetBytes: budget, MaxStructures: 10})
	if sz := res.Config.SizeBytes(cat); sz > budget {
		t.Errorf("config size %d exceeds budget %d", sz, budget)
	}
}

func TestGreedyMaxStructures(t *testing.T) {
	opt, cat, w, cands := setup(t, 100, 3)
	res := Greedy(opt, cat, w, nil, cands, Options{MaxStructures: 2})
	if res.Config.NumStructures() > 2 {
		t.Errorf("structures = %d, cap 2", res.Config.NumStructures())
	}
}

func TestGreedyWeighted(t *testing.T) {
	opt, cat, w, cands := setup(t, 120, 4)
	// Weight a single expensive query overwhelmingly: the tuner must favor
	// structures helping it.
	weights := make([]float64, w.Size())
	for i := range weights {
		weights[i] = 0.0001
	}
	// Pick a join query if present.
	target := 0
	for i, q := range w.Queries {
		if len(q.Analysis.Tables) >= 2 {
			target = i
			break
		}
	}
	weights[target] = 10_000
	res := Greedy(opt, cat, w, weights, cands, Options{MaxStructures: 4})
	if res.Improvement() <= 0 {
		t.Skip("no improvement possible for the weighted query")
	}
	// The tuned config must help the target query specifically.
	empty := physical.NewConfiguration("empty")
	a := w.Queries[target].Analysis
	if opt.Cost(a, res.Config) > opt.Cost(a, empty) {
		t.Error("weighted tuning did not help the dominant query")
	}
}

func TestEvaluateOn(t *testing.T) {
	opt, cat, w, cands := setup(t, 100, 5)
	res := Greedy(opt, cat, w, nil, cands, Options{MaxStructures: 5})
	imp := EvaluateOn(opt, w, res.Config)
	if imp <= 0 {
		t.Errorf("EvaluateOn improvement = %v", imp)
	}
	// Tuning-set improvement should match EvaluateOn on the same workload.
	if diff := imp - res.Improvement(); diff > 0.01 || diff < -0.01 {
		t.Errorf("improvement mismatch: %v vs %v", imp, res.Improvement())
	}
}

// The Section 7.3 quality experiment in miniature: tuning a top-cost
// compressed workload generalizes worse than tuning random samples of the
// same size.
func TestCompressedTuningWorseThanSamples(t *testing.T) {
	opt, cat, w, cands := setup(t, 400, 6)

	// Current-configuration costs (empty config).
	empty := physical.NewConfiguration("empty")
	costs := make([]float64, w.Size())
	for i, q := range w.Queries {
		costs[i] = opt.Cost(q.Analysis, empty)
	}

	comp := compress.TopCost(w, costs, 0.2)
	compW := w.Subset(comp.IDs)
	compRes := Greedy(opt, cat, compW, comp.Weights, cands, Options{MaxStructures: 5})
	compImp := EvaluateOn(opt, w, compRes.Config)

	var sampleImps []float64
	for s := 0; s < 3; s++ {
		perm := stats.NewRNG(uint64(s) + 11).Perm(w.Size())
		samp := compress.RandomSample(w, comp.Size(), perm)
		sw := w.Subset(samp.IDs)
		sampRes := Greedy(opt, cat, sw, samp.Weights, cands, Options{MaxStructures: 5})
		sampleImps = append(sampleImps, EvaluateOn(opt, w, sampRes.Config))
	}
	var avg float64
	for _, v := range sampleImps {
		avg += v
	}
	avg /= float64(len(sampleImps))
	t.Logf("compressed improvement %.3f vs avg sample improvement %.3f", compImp, avg)
	if avg < compImp {
		t.Errorf("random samples (%.3f) should beat top-cost compression (%.3f)", avg, compImp)
	}
}
