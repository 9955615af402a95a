package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays a file tree under a temp dir and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func loadAll(t *testing.T, root string, includeTests bool) []*Package {
	t.Helper()
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l.IncludeTests = includeTests
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func pkgPaths(pkgs []*Package) []string {
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = p.Path
	}
	return out
}

// TestLoadSkipsVendorAndHiddenDirs: vendor/, testdata/, dot- and
// underscore-prefixed directories must never be parsed — they may hold
// arbitrary (even unparsable) Go files.
func TestLoadSkipsVendorAndHiddenDirs(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                  "module loadtest\n\ngo 1.22\n",
		"lib/lib.go":              "package lib\n\nfunc One() int { return 1 }\n",
		"vendor/dep/dep.go":       "package dep\n\nthis is not Go\n",
		"lib/testdata/fixture.go": "also not Go\n",
		".hidden/h.go":            "nope\n",
		"_skip/s.go":              "nope\n",
	})
	pkgs := loadAll(t, root, false)
	got := pkgPaths(pkgs)
	if len(got) != 1 || got[0] != "loadtest/lib" {
		t.Fatalf("want exactly [loadtest/lib], got %v", got)
	}
}

// TestLoadSkipsBuildTagExcludedFiles: a file gated behind an unsatisfied
// //go:build constraint is skipped exactly as `go build` would skip it,
// even if it would not type-check.
func TestLoadSkipsBuildTagExcludedFiles(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":      "module loadtest\n\ngo 1.22\n",
		"lib/lib.go":  "package lib\n\nfunc One() int { return 1 }\n",
		"lib/gen.go":  "//go:build ignore\n\npackage lib\n\nfunc Broken() { undefinedSymbol() }\n",
		"lib/othr.go": "//go:build someexotictag\n\npackage lib\n\nvar AlsoBroken = undefined\n",
	})
	pkgs := loadAll(t, root, false)
	if len(pkgs) != 1 {
		t.Fatalf("want one package, got %v", pkgPaths(pkgs))
	}
	if n := len(pkgs[0].Files); n != 1 {
		t.Fatalf("tag-excluded files should be dropped: want 1 file, got %d", n)
	}
}

// TestLoadUnusedImportIsReadableError: an unused import is a type-check
// failure; LoadAll must surface it as an error naming the package rather
// than panicking or silently dropping the package.
func TestLoadUnusedImportIsReadableError(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":     "module loadtest\n\ngo 1.22\n",
		"lib/lib.go": "package lib\n\nimport \"fmt\"\n\nfunc One() int { return 1 }\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadAll()
	if err == nil {
		t.Fatal("want type-check error for unused import, got nil")
	}
	if !strings.Contains(err.Error(), "loadtest/lib") {
		t.Fatalf("error should name the failing package: %v", err)
	}
}

// TestLoadTestOnlyPackage: a directory holding only _test.go files has no
// base unit; with IncludeTests it still yields its test-variant units
// (in-package and external), both marked Test with the right BasePath.
func TestLoadTestOnlyPackage(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module loadtest\n\ngo 1.22\n",
		"only/only_test.go": "package only\n\nimport \"testing\"\n\n" +
			"func TestIn(t *testing.T) {}\n",
		"only/ext_test.go": "package only_test\n\nimport \"testing\"\n\n" +
			"func TestExt(t *testing.T) {}\n",
	})
	if pkgs := loadAll(t, root, false); len(pkgs) != 0 {
		t.Fatalf("without IncludeTests a test-only dir yields nothing, got %v", pkgPaths(pkgs))
	}
	pkgs := loadAll(t, root, true)
	got := pkgPaths(pkgs)
	want := []string{"loadtest/only [test]", "loadtest/only_test"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("want %v, got %v", want, got)
	}
	for _, p := range pkgs {
		if !p.Test {
			t.Errorf("%s: Test flag not set", p.Path)
		}
		if p.BasePath != "loadtest/only" {
			t.Errorf("%s: BasePath = %q, want loadtest/only", p.Path, p.BasePath)
		}
	}
}

// TestLoadTestVariantFileSplit: a test variant reports only its _test.go
// files but type-checks the whole unit, so analyzers see test files once
// while the flow graph still resolves base declarations.
func TestLoadTestVariantFileSplit(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":     "module loadtest\n\ngo 1.22\n",
		"lib/lib.go": "package lib\n\nfunc one() int { return 1 }\n\nvar _ = one\n",
		"lib/lib_test.go": "package lib\n\nimport \"testing\"\n\n" +
			"func TestOne(t *testing.T) { if one() != 1 { t.Fail() } }\n",
	})
	pkgs := loadAll(t, root, true)
	var variant *Package
	for _, p := range pkgs {
		if p.Path == "loadtest/lib [test]" {
			variant = p
		}
	}
	if variant == nil {
		t.Fatalf("no in-package test variant in %v", pkgPaths(pkgs))
	}
	if len(variant.Files) != 1 {
		t.Fatalf("variant should report only the test file, got %d files", len(variant.Files))
	}
	if len(variant.AllFiles) != 2 {
		t.Fatalf("variant should type-check base+test files, got %d", len(variant.AllFiles))
	}
}

// TestLoadExternalTestSeesExportTest: an external test package imports
// the package under test as `go test` builds it, with its export_test.go
// declarations in scope, and a module package importing it agrees on its
// types.
func TestLoadExternalTestSeesExportTest(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":             "module loadtest\n\ngo 1.22\n",
		"lib/lib.go":         "package lib\n\ntype T struct{}\n\nfunc one() int { return 1 }\n",
		"lib/export_test.go": "package lib\n\nfunc One() int { return one() }\n",
		"use/use.go":         "package use\n\nimport \"loadtest/lib\"\n\nfunc Take(lib.T) {}\n",
		"lib/lib_ext_test.go": "package lib_test\n\nimport (\n\t\"testing\"\n\n\t\"loadtest/lib\"\n\t\"loadtest/use\"\n)\n\n" +
			"func TestOne(t *testing.T) {\n\tuse.Take(lib.T{})\n\tif lib.One() != 1 {\n\t\tt.Fail()\n\t}\n}\n",
	})
	var ext *Package
	for _, p := range loadAll(t, root, true) {
		if p.Path == "loadtest/lib_test" {
			ext = p
		}
	}
	if ext == nil {
		t.Fatal("no external test package loaded")
	}
}

// TestCheckGOROOT: the running toolchain must pass; a source-less GOROOT
// must fail with an error that names the missing path and says what to do.
func TestCheckGOROOT(t *testing.T) {
	if err := CheckGOROOT(""); err != nil {
		t.Fatalf("running toolchain GOROOT should have sources: %v", err)
	}
	bogus := t.TempDir()
	err := CheckGOROOT(bogus)
	if err == nil {
		t.Fatal("want error for GOROOT without stdlib sources")
	}
	msg := err.Error()
	if !strings.Contains(msg, bogus) || !strings.Contains(msg, "standard-library sources") {
		t.Fatalf("error should be actionable (name the GOROOT and the problem): %v", err)
	}
}

// TestFindModuleRoot walks up to the nearest go.mod and errors cleanly
// when there is none.
func TestFindModuleRoot(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":            "module loadtest\n\ngo 1.22\n",
		"a/b/c/placeholder": "",
	})
	got, err := FindModuleRoot(filepath.Join(root, "a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if got != root {
		t.Fatalf("FindModuleRoot = %q, want %q", got, root)
	}
	if _, err := FindModuleRoot(t.TempDir()); err == nil {
		t.Fatal("want error when no go.mod exists above dir")
	}
}
