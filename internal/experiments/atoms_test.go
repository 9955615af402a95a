package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestAtomSharingRowsAndJSON runs the sharing curve at unit-test scale and
// pins the row invariants: the direct bill is exactly the pair count, the
// shared bill is strictly smaller, the surfaces matched bit-for-bit, and
// the JSON artifact round-trips.
func TestAtomSharingRowsAndJSON(t *testing.T) {
	s, err := TPCDScenario(tiny())
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{4, 6}
	rows, err := AtomSharing(s, ks, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ks) {
		t.Fatalf("got %d rows, want %d", len(rows), len(ks))
	}
	for _, row := range rows {
		if !row.Identical {
			t.Errorf("k=%d: surfaces not identical (AtomSharing should have errored)", row.K)
		}
		if row.K < 2 || row.Queries <= 0 {
			t.Errorf("k=%d queries=%d: degenerate row", row.K, row.Queries)
		}
		if row.Pairs != int64(row.Queries*row.K) {
			t.Errorf("k=%d: pairs %d != queries×k = %d", row.K, row.Pairs, row.Queries*row.K)
		}
		if row.DirectCalls != row.Pairs {
			t.Errorf("k=%d: direct bill %d != pair count %d", row.K, row.DirectCalls, row.Pairs)
		}
		if row.SharedCalls <= 0 || row.SharedCalls >= row.DirectCalls {
			t.Errorf("k=%d: shared bill %d not in (0, %d)", row.K, row.SharedCalls, row.DirectCalls)
		}
		if row.Reduction <= 1 {
			t.Errorf("k=%d: reduction %.2f, want > 1 on an overlapping space", row.K, row.Reduction)
		}
		if row.Atoms <= 0 || row.AtomHits <= 0 {
			t.Errorf("k=%d: atoms=%d hits=%d, want both positive", row.K, row.Atoms, row.AtomHits)
		}
	}

	path := filepath.Join(t.TempDir(), "atoms.json")
	if err := WriteAtomsJSON(path, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmark string     `json:"benchmark"`
		Rows      []AtomsRow `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if doc.Benchmark != "atom-sharing" || len(doc.Rows) != len(rows) {
		t.Errorf("artifact header %q with %d rows, want %q with %d", doc.Benchmark, len(doc.Rows), "atom-sharing", len(rows))
	}
	if doc.Rows[0] != rows[0] {
		t.Errorf("round-trip diverged: %+v vs %+v", doc.Rows[0], rows[0])
	}

	if err := WriteAtomsJSON(filepath.Join(t.TempDir(), "no", "such", "dir.json"), rows); err == nil {
		t.Error("writing into a missing directory should fail")
	}
}
