package experiments

import (
	"encoding/json"
	"fmt"
	"os"

	"physdes/internal/optimizer"
	"physdes/internal/par"
)

// AtomsRow is one point of the atomic what-if sharing curve: the full
// (query, configuration) cost surface of a k-candidate space evaluated once
// directly and once through the atom store, with identical values
// required.
type AtomsRow struct {
	// K is the candidate-space size.
	K int `json:"k"`
	// Queries is the workload subset size the surface is built over.
	Queries int `json:"queries"`
	// Pairs is Queries × K, the direct what-if bill.
	Pairs int64 `json:"pairs"`
	// DirectCalls is what the direct evaluation charged (== Pairs).
	DirectCalls int64 `json:"direct_calls"`
	// SharedCalls is what the atom-store evaluation charged the inner
	// optimizer: one call per distinct (query, atom) pair.
	SharedCalls int64 `json:"shared_calls"`
	// Reduction is DirectCalls / SharedCalls.
	Reduction float64 `json:"reduction"`
	// AtomHits counts reassemblies served from the atom store.
	AtomHits int64 `json:"atom_hits"`
	// Atoms counts the distinct (query, atom) costings paid.
	Atoms int64 `json:"atoms"`
	// Identical reports whether the two cost surfaces matched bit-for-bit
	// (the experiment's correctness gate; always true unless atoms.go
	// regresses).
	Identical bool `json:"identical"`
}

// AtomSharing measures the what-if call reduction of atomic-configuration
// sharing on the Table 2 regime: for each k, a perturbation space around a
// tuned configuration (heavily overlapping candidates, as a tuning tool
// emits) is costed over a workload subset, once with a plain optimizer and
// once through an optimizer.AtomicCache, asserting bit-identical costs and
// reporting both call bills.
func AtomSharing(s *Scenario, ks []int, p Params) ([]AtomsRow, error) {
	p = p.withDefaults()
	w := subsample(s.W, 1200, p.Seed+9)
	workers := par.Default()

	rows := make([]AtomsRow, 0, len(ks))
	for _, k := range ks {
		configs := buildSpace(s, k, p.Seed+13)
		if len(configs) < 2 {
			return nil, fmt.Errorf("experiments: atoms: only %d configurations for k=%d", len(configs), k)
		}
		// Pair i is query i/len(configs) under configuration i%len(configs).
		pairs := w.Size() * len(configs)
		direct := optimizer.New(s.Cat)
		shared := optimizer.NewAtomicCache(optimizer.New(s.Cat))
		want := make([]float64, pairs)
		got := make([]float64, pairs)
		par.For(pairs, workers, func(i int) {
			a, cfg := w.Queries[i/len(configs)].Analysis, configs[i%len(configs)]
			want[i] = direct.Cost(a, cfg)
			got[i] = shared.Cost(a, cfg)
		})

		identical := true
		for i := range want {
			if want[i] != got[i] {
				identical = false
				break
			}
		}
		if !identical {
			return nil, fmt.Errorf("experiments: atoms: k=%d cost surfaces diverged (sharing must be exact)", k)
		}

		hits, misses, _ := shared.Stats()
		row := AtomsRow{
			K:           len(configs),
			Queries:     w.Size(),
			Pairs:       int64(pairs),
			DirectCalls: direct.Calls(),
			SharedCalls: shared.Calls(),
			AtomHits:    hits,
			Atoms:       misses,
			Identical:   identical,
		}
		if row.SharedCalls > 0 {
			row.Reduction = float64(row.DirectCalls) / float64(row.SharedCalls)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteAtomsJSON writes the sharing curve as a JSON document (the
// BENCH_atoms.json artifact tracked across revisions).
func WriteAtomsJSON(path string, rows []AtomsRow) error {
	doc := struct {
		Benchmark string     `json:"benchmark"`
		Rows      []AtomsRow `json:"rows"`
	}{Benchmark: "atom-sharing", Rows: rows} // the artifact's label, kept byte-stable
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
