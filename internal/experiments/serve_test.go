package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"physdes/internal/obs"
)

// TestServeLoadSmall runs the load harness at reduced scale: every
// accepted job must land done with nothing lost or duplicated, and the
// artifact writer must produce the BENCH_serve.json document.
func TestServeLoadSmall(t *testing.T) {
	p := Quick()
	p.Seed = 3
	res, err := ServeLoad(24, 1, 4, p)
	if err != nil {
		t.Fatalf("ServeLoad: %v", err)
	}
	if res.JobsSubmitted != 24 || res.JobsDone != 24 {
		t.Fatalf("submitted=%d done=%d, want 24/24", res.JobsSubmitted, res.JobsDone)
	}
	if res.JobsLost != 0 || res.JobsDuplicated != 0 {
		t.Fatalf("lost=%d duplicated=%d", res.JobsLost, res.JobsDuplicated)
	}
	if res.ThroughputPerSec <= 0 || res.P99JobMS <= 0 {
		t.Errorf("degenerate latency stats: %+v", res)
	}

	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := WriteServeJSON(path, res); err != nil {
		t.Fatalf("WriteServeJSON: %v", err)
	}
	var b strings.Builder
	if err := PrintServeLoad(&b, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "lost=0 duplicated=0") {
		t.Errorf("printed summary missing invariant line:\n%s", b.String())
	}
}

// TestServeAtomReuseFromRegistry pins the load run's cache hit rate to the
// atom store's reuse, atom_hits / (atom_hits + atoms). Memo counters count
// probes, not atoms: adding them in (and clamping) would report 1.0 here.
func TestServeAtomReuseFromRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("serve_jobs_total").Add(4)
	reg.Counter("serve_jobs_done_total").Add(4)
	reg.Counter("optimizer_atom_hits_total").Add(30)
	reg.Counter("optimizer_atoms_total").Add(90)
	reg.Counter("optimizer_cache_hits_total").Add(10)
	reg.Counter("optimizer_cache_misses_total").Add(10)
	res := &ServeLoadResult{JobsSubmitted: 4}
	res.readSnapshot(reg.Snapshot())
	if res.CacheHitRate != 0.25 {
		t.Errorf("CacheHitRate = %v, want atom reuse 30/120 = 0.25", res.CacheHitRate)
	}
	if res.JobsDone != 4 || res.JobsLost != 0 || res.JobsDuplicated != 0 {
		t.Errorf("job totals = done %d lost %d duplicated %d, want 4/0/0", res.JobsDone, res.JobsLost, res.JobsDuplicated)
	}
	var b strings.Builder
	if err := PrintServeLoad(&b, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "atom reuse=25.0%") {
		t.Errorf("printed summary lacks the atom reuse:\n%s", b.String())
	}
}
