package physical_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/physical"
	"physdes/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestCandidatesGolden pins candidate enumeration: for TPC-D 13K and CRM
// 6K statements at two seeds, under three option sets, it records the
// candidate count and the FNV-64 of the newline-joined candidate IDs.
// Any change to enumeration or to the analyses it reads must leave
// testdata/candidates.golden byte-unchanged; regenerate it with
// `go test ./internal/physical -run TestCandidatesGolden -update` only for
// an intended change to the candidate set.
func TestCandidatesGolden(t *testing.T) {
	opts := []struct {
		name string
		co   physical.CandidateOptions
	}{
		{"covering+views", physical.CandidateOptions{Covering: true, Views: true}},
		{"covering+views+merged", physical.CandidateOptions{Covering: true, Views: true, Merged: true}},
		{"none", physical.CandidateOptions{}},
	}
	dbs := []struct {
		name string
		n    int
		cat  *catalog.Catalog
		gen  func(*catalog.Catalog, int, uint64) (*workload.Workload, error)
	}{
		{"tpcd", 13000, catalog.TPCD(1), workload.GenTPCD},
		{"crm", 6000, catalog.CRM(), workload.GenCRM},
	}
	var b strings.Builder
	for _, db := range dbs {
		for _, seed := range []uint64{1000, 1001} {
			w, err := db.gen(db.cat, db.n, seed)
			if err != nil {
				t.Fatal(err)
			}
			analyses := w.Analyses()
			for _, o := range opts {
				cands := physical.EnumerateCandidates(db.cat, analyses, o.co)
				h := fnv.New64a()
				for i, s := range cands {
					if i > 0 {
						h.Write([]byte{'\n'})
					}
					h.Write([]byte(s.ID()))
				}
				fmt.Fprintf(&b, "%s n=%d seed=%d %s: candidates=%d fnv64=%016x\n",
					db.name, db.n, seed, o.name, len(cands), h.Sum64())
			}
		}
	}

	got := b.String()
	path := filepath.Join("testdata", "candidates.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("candidates diverged from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
