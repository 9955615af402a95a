package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"physdes"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// captureStdout redirects os.Stdout around fn and returns what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() {
		os.Stdout = old
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// checkGolden byte-compares got against testdata/<name>, rewriting it
// under -update.
func checkGolden(t *testing.T, goldenPath, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output diverged from %s\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, want)
	}
}

// writeConfigJSON marshals a configuration the same way `tune -out` does.
func writeConfigJSON(t *testing.T, path string, cfg *physdes.Configuration) {
	t.Helper()
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenDir resolves testdata/ before the test chdirs into its scratch
// directory.
func goldenDir(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(wd, "testdata")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// The compare subcommand's report — winner, Pr(CS), call accounting and
// the migration diff — is part of the tool's scripted interface: a fixed
// seed must reproduce it byte for byte, including the JSON configuration
// round-trip through -a/-b.
func TestCompareGolden(t *testing.T) {
	golden := filepath.Join(goldenDir(t), "compare.golden")
	t.Chdir(t.TempDir())

	cur := physdes.NewConfiguration("current",
		physdes.NewIndex("lineitem", []string{"l_shipdate"}))
	prop := physdes.NewConfiguration("proposed",
		physdes.NewIndex("lineitem", []string{"l_partkey"}, "l_quantity"),
		physdes.NewIndex("lineitem", []string{"l_orderkey"}),
		physdes.NewIndex("orders", []string{"o_custkey"}))
	writeConfigJSON(t, "a.json", cur)
	writeConfigJSON(t, "b.json", prop)

	out := captureStdout(t, func() {
		err := cmdCompare([]string{
			"-db", "tpcd", "-n", "300", "-seed", "1",
			"-a", "a.json", "-b", "b.json",
		})
		if err != nil {
			t.Error(err)
		}
	})
	checkGolden(t, golden, out)
}

// Same contract for a workload loaded from a .jsonl table instead of
// generated in-process.
func TestCompareWorkloadFileGolden(t *testing.T) {
	golden := filepath.Join(goldenDir(t), "compare_workload.golden")
	t.Chdir(t.TempDir())

	cat := physdes.TPCDCatalog(1)
	w, err := physdes.GenTPCD(cat, 120, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := physdes.SaveWorkload(w, "trace.jsonl"); err != nil {
		t.Fatal(err)
	}
	writeConfigJSON(t, "a.json", physdes.NewConfiguration("current"))
	writeConfigJSON(t, "b.json", physdes.NewConfiguration("proposed",
		physdes.NewIndex("lineitem", []string{"l_partkey"}, "l_quantity")))

	out := captureStdout(t, func() {
		err := cmdCompare([]string{
			"-db", "tpcd", "-seed", "2",
			"-workload", "trace.jsonl",
			"-a", "a.json", "-b", "b.json",
		})
		if err != nil {
			t.Error(err)
		}
	})
	checkGolden(t, golden, out)
}

// The explain subcommand renders the cost model's plan; the rendering —
// operator tree, cardinalities, costs — is byte-stable for a fixed
// statement, both under the empty configuration and under a JSON
// configuration loaded from disk.
func TestExplainGolden(t *testing.T) {
	golden := filepath.Join(goldenDir(t), "explain.golden")
	t.Chdir(t.TempDir())

	writeConfigJSON(t, "rec.json", physdes.NewConfiguration("rec",
		physdes.NewIndex("lineitem", []string{"l_partkey"}, "l_quantity")))

	out := captureStdout(t, func() {
		err := cmdExplain([]string{
			"-db", "tpcd",
			"-q", "SELECT l_quantity FROM lineitem WHERE l_partkey = 1500",
			"-config", "rec.json",
		})
		if err != nil {
			t.Error(err)
		}
	})
	checkGolden(t, golden, out)
}

// The select subcommand's -warm-state flow is part of the scripted
// interface: a cold run captures a snapshot, a rerun loads it, reports
// the reuse and beats the cold oracle bill, and the snapshot encoding is
// canonical — re-saving a reloaded state is byte-identical.
func TestSelectWarmStateGolden(t *testing.T) {
	golden := filepath.Join(goldenDir(t), "select_warm.golden")
	t.Chdir(t.TempDir())

	args := []string{
		"-db", "tpcd", "-n", "600", "-k", "4", "-seed", "1",
		"-warm-state", "state.json",
	}
	coldOut := captureStdout(t, func() {
		if err := cmdSelect(args, false); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(coldOut, "wrote warm state to state.json") {
		t.Fatalf("cold run did not save a snapshot:\n%s", coldOut)
	}
	saved, err := os.ReadFile("state.json")
	if err != nil {
		t.Fatal(err)
	}

	// Canonical encoding: load → re-marshal must be byte-identical.
	st, err := physdes.LoadWarmState("state.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := physdes.SaveWarmState(st, "resaved.json"); err != nil {
		t.Fatal(err)
	}
	resaved, err := os.ReadFile("resaved.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, resaved) {
		t.Error("re-saving a reloaded warm state changed its bytes: encoding is not canonical")
	}

	warmOut := captureStdout(t, func() {
		if err := cmdSelect(args, false); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(warmOut, "warm state: loaded state.json") ||
		!strings.Contains(warmOut, "warm start: ") {
		t.Fatalf("rerun did not engage the warm path:\n%s", warmOut)
	}
	checkGolden(t, golden, coldOut+"---\n"+warmOut)
}

// The explore subcommand prints the selection followed by its Pr(CS)
// trajectory; both are deterministic for a fixed seed.
func TestExploreGolden(t *testing.T) {
	golden := filepath.Join(goldenDir(t), "explore.golden")
	t.Chdir(t.TempDir())

	out := captureStdout(t, func() {
		err := cmdSelect([]string{"-db", "tpcd", "-n", "2600", "-k", "20", "-seed", "7"}, true)
		if err != nil {
			t.Error(err)
		}
	})
	checkGolden(t, golden, out)
}
