package tracenames_test

import (
	"os"
	"path/filepath"
	"testing"

	"physdes/internal/analysis/analysistest"
	"physdes/internal/analysis/tracenames"
)

func TestTraceNames(t *testing.T) {
	tracenames.SetSchema(
		[]string{"round", "select.begin", "select.end"},
		[]string{"optimizer_calls_total", "bounds_sigma_max_dp_seconds"},
	)
	defer tracenames.SetSchema(nil, nil)
	analysistest.Run(t, tracenames.Analyzer, "testdata/src/a")
}

func TestLoadDesignSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "DESIGN.md")
	doc := "# doc\n\n" +
		"| Kind | Name | Source |\n" +
		"|------|------|--------|\n" +
		"| event | `round` | sampling |\n" +
		"| event | `select.begin` | core |\n" +
		"| metric | `optimizer_calls_total` | optimizer |\n" +
		"\nprose mentioning `not_a_row` stays out.\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := tracenames.LoadDesignSchema(path)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Events["round"] || !s.Events["select.begin"] {
		t.Errorf("events missing from parsed schema: %v", s.Events)
	}
	if !s.Metrics["optimizer_calls_total"] {
		t.Errorf("metrics missing from parsed schema: %v", s.Metrics)
	}
	if s.Events["not_a_row"] || s.Metrics["not_a_row"] {
		t.Errorf("prose leaked into the schema")
	}
}

// TestRepoSchemaParses pins the real DESIGN.md table: every event and
// metric the codebase actually emits must have a row, so this test
// failing means the doc and the code have drifted.
func TestRepoSchemaParses(t *testing.T) {
	s, err := tracenames.LoadDesignSchema(filepath.Join("..", "..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []string{
		"select.begin", "select.end", "derive_bounds.begin", "derive_bounds.end",
		"pilot.done", "round", "alloc", "split", "eliminate",
	} {
		if !s.Events[ev] {
			t.Errorf("DESIGN §5a schema table is missing event %q", ev)
		}
	}
	for _, m := range []string{
		"optimizer_calls_total", "optimizer_cost_seconds",
		"optimizer_atom_hits_total", "optimizer_atoms_total",
		"optimizer_batches_total", "optimizer_batch_requests_total", "optimizer_batch_size",
		"optimizer_batch_inflight", "optimizer_batch_queue_depth",
		"sampling_samples_total", "sampling_rounds_total", "sampling_splits_total",
		"sampling_eliminations_total",
		"bounds_sigma_max_dp_seconds", "bounds_sigma_max_dp_total", "bounds_sigma_max_dp_cells",
	} {
		if !s.Metrics[m] {
			t.Errorf("DESIGN §5a schema table is missing metric %q", m)
		}
	}
}
