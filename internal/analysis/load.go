package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked compilation unit. A directory can
// yield up to three units: the base package, its in-package test variant
// (base files re-checked together with package-local _test.go files),
// and the external _test package.
type Package struct {
	Path string // unit path, e.g. physdes/internal/sampling [test]
	// BasePath is the import path of the underlying package, without
	// test-variant decoration; AppliesTo predicates consult it.
	BasePath string
	Dir      string // absolute directory
	// Files are the files analyzers report on: for a test variant, only
	// the _test.go files (the base files already ran under the base
	// unit).
	Files []*ast.File
	// AllFiles is every file of the type-checked unit, for whole-unit
	// consumers (the flow call graph needs base declarations in scope).
	AllFiles []*ast.File
	Types    *types.Package
	Info     *types.Info
	// Test marks test variants (in-package or external).
	Test bool
}

// Loader parses and type-checks every package of one Go module using
// only the standard library: module packages are checked in dependency
// order, standard-library imports resolve through go/importer's source
// importer. With IncludeTests set, each package's _test.go files are
// additionally checked as test-variant units after every base package
// has loaded (so test→package imports can never cycle); analyzers then
// decide per-check whether test files are in scope via
// Analyzer.IncludeTests.
type Loader struct {
	ModuleRoot string
	ModulePath string
	// IncludeTests loads _test.go files as test-variant units.
	IncludeTests bool

	Fset *token.FileSet

	pkgs map[string]*Package // by import path, filled in load order
	std  types.ImporterFrom
}

// CheckGOROOT verifies that GOROOT ships the standard library sources
// the loader type-checks against, returning an actionable error when it
// does not (e.g. a binary-only toolchain install). goroot == "" checks
// the running toolchain's GOROOT.
func CheckGOROOT(goroot string) error {
	if goroot == "" {
		goroot = runtime.GOROOT()
	}
	probe := filepath.Join(goroot, "src", "fmt")
	if fi, err := os.Stat(probe); err == nil && fi.IsDir() {
		return nil
	}
	return fmt.Errorf("GOROOT %q has no standard-library sources (missing %s): the lint suite type-checks against GOROOT source; install a full Go distribution or point GOROOT at one (`go env GOROOT` of a source install)", goroot, probe)
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// NewLoader prepares a loader rooted at the module directory root.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(modPath); err == nil {
				modPath = unq
			}
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("%s/go.mod: no module directive", root)
	}
	if err := CheckGOROOT(""); err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		Fset:       fset,
		pkgs:       map[string]*Package{},
	}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("source importer does not implement ImporterFrom")
	}
	l.std = std
	return l, nil
}

// parsedPkg is a package after parsing, before type checking.
type parsedPkg struct {
	path     string
	dir      string
	files    []*ast.File // non-test files
	inTests  []*ast.File // package-local _test.go files
	extTests []*ast.File // package foo_test files
	imports  []string    // module-internal imports of non-test files
}

// LoadAll parses and type-checks every package under the module root,
// returning them in a deterministic (import-path) order.
func (l *Loader) LoadAll() ([]*Package, error) {
	parsed := map[string]*parsedPkg{}
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		pp, err := l.parseDir(path)
		if err != nil {
			return err
		}
		if pp != nil {
			parsed[pp.path] = pp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	order := make([]string, 0, len(parsed))
	for p := range parsed {
		order = append(order, p)
	}
	sort.Strings(order)

	// Type-check in dependency order via DFS over module-internal
	// imports; sorted roots keep the result order deterministic.
	state := map[string]int{} // 0 unvisited, 1 in progress, 2 done
	var out []*Package
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		pp := parsed[path]
		for _, imp := range pp.imports {
			if _, ok := parsed[imp]; ok {
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		// A directory holding only _test.go files has no base unit; its
		// test units are built in the IncludeTests phase below.
		if len(pp.files) > 0 {
			pkg, err := l.check(pp)
			if err != nil {
				return err
			}
			l.pkgs[path] = pkg
			out = append(out, pkg)
		}
		state[path] = 2
		return nil
	}
	for _, p := range order {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	// With every base package in scope, test files can import any module
	// package without cycling: an in-package test unit re-checks the base
	// files together with the local _test.go files (so tests see
	// unexported declarations), an external _test package checks on its
	// own and imports the base package like any other consumer — as its
	// in-package test variant when there is one, the way `go test` builds
	// it (see testImporter).
	if l.IncludeTests {
		for _, path := range order {
			pp := parsed[path]
			var imp types.Importer = l
			if len(pp.inTests) > 0 {
				all := append(append([]*ast.File{}, pp.files...), pp.inTests...)
				pkg, err := l.checkUnit(l, pp.path+" [test]", pp.dir, all)
				if err != nil {
					return nil, err
				}
				pkg.BasePath = pp.path
				pkg.Files = pp.inTests
				pkg.Test = true
				out = append(out, pkg)
				imp = &testImporter{l: l, parsed: parsed, under: pp.path, pkgs: map[string]*types.Package{pp.path: pkg.Types}, deps: map[string]bool{}}
			}
			if len(pp.extTests) > 0 {
				pkg, err := l.checkUnit(imp, pp.path+"_test", pp.dir, pp.extTests)
				if err != nil {
					return nil, err
				}
				pkg.BasePath = pp.path
				pkg.Test = true
				out = append(out, pkg)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// parseDir parses the Go files of one directory, returning nil if the
// directory holds no buildable Go files. Files excluded by a //go:build
// constraint for the current GOOS/GOARCH are skipped, matching what the
// compiler would build.
func (l *Loader) parseDir(dir string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return nil, err
	}
	impPath := l.ModulePath
	if rel != "." {
		impPath = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	pp := &parsedPkg{path: impPath, dir: dir}
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !l.IncludeTests {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !buildTagsMatch(f) {
			continue
		}
		switch {
		case !isTest:
			pp.files = append(pp.files, f)
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if (p == l.ModulePath || strings.HasPrefix(p, l.ModulePath+"/")) && !seen[p] {
					seen[p] = true
					pp.imports = append(pp.imports, p)
				}
			}
		case strings.HasSuffix(f.Name.Name, "_test"):
			pp.extTests = append(pp.extTests, f)
		default:
			pp.inTests = append(pp.inTests, f)
		}
	}
	if len(pp.files) == 0 && len(pp.inTests) == 0 && len(pp.extTests) == 0 {
		return nil, nil
	}
	sort.Strings(pp.imports)
	return pp, nil
}

// buildTagsMatch evaluates a file's //go:build constraint (if any) for
// the running GOOS/GOARCH; a file with no constraint always matches.
// Release tags (go1.x) and the gc toolchain are assumed satisfied;
// unknown tags (custom names, "ignore") evaluate false, so tag-gated
// files are skipped exactly when `go build` would skip them here.
func buildTagsMatch(f *ast.File) bool {
	for _, cg := range f.Comments {
		// Constraints must precede the package clause.
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			return expr.Eval(func(tag string) bool {
				switch {
				case tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" || tag == "unix" && unixGOOS[runtime.GOOS]:
					return true
				case strings.HasPrefix(tag, "go1"):
					return true
				}
				return false
			})
		}
	}
	return true
}

var unixGOOS = map[string]bool{
	"aix": true, "darwin": true, "dragonfly": true, "freebsd": true,
	"illumos": true, "ios": true, "linux": true, "netbsd": true,
	"openbsd": true, "solaris": true,
}

// Import resolves an import path for the type checker: module packages
// from the loaded set, everything else from GOROOT source.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		return nil, fmt.Errorf("module package %s not yet loaded (import cycle?)", path)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// testImporter resolves an external test package's imports as `go test`
// builds them: the package under test is its in-package test variant, so
// declarations of its _test.go files (an export_test.go) are in scope,
// and every module package importing it, directly or not, is re-checked
// against that variant, so the test's types agree across packages.
// Everything else resolves as for a base package.
type testImporter struct {
	l      *Loader
	parsed map[string]*parsedPkg
	under  string
	pkgs   map[string]*types.Package // the variant and re-checked packages
	deps   map[string]bool           // memo of importsUnder
}

// Import implements types.Importer.
func (ti *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ti.pkgs[path]; ok {
		return pkg, nil
	}
	if !ti.importsUnder(path) {
		return ti.l.Import(path)
	}
	conf := types.Config{Importer: ti, Error: func(err error) {}}
	pkg, err := conf.Check(path, ti.l.Fset, ti.parsed[path].files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s against %s's test variant: %w", path, ti.under, err)
	}
	ti.pkgs[path] = pkg
	return pkg, nil
}

// importsUnder reports whether module package path imports the package
// under test, directly or not.
func (ti *testImporter) importsUnder(path string) bool {
	if dep, ok := ti.deps[path]; ok {
		return dep
	}
	ti.deps[path] = false
	if pp, ok := ti.parsed[path]; ok {
		for _, imp := range pp.imports {
			if imp == ti.under || ti.importsUnder(imp) {
				ti.deps[path] = true
				break
			}
		}
	}
	return ti.deps[path]
}

// check type-checks one parsed package's base unit.
func (l *Loader) check(pp *parsedPkg) (*Package, error) {
	pkg, err := l.checkUnit(l, pp.path, pp.dir, pp.files)
	if err != nil {
		return nil, err
	}
	pkg.BasePath = pp.path
	return pkg, nil
}

// checkUnit type-checks one compilation unit (base package, in-package
// test variant, or external test package), resolving imports with imp.
func (l *Loader) checkUnit(imp types.Importer, path, dir string, files []*ast.File) (*Package, error) {
	info := NewInfo()
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) {}, // collect via returned error
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, AllFiles: files, Types: tpkg, Info: info}, nil
}

// NewInfo allocates a types.Info with every map analyzers consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// RunAnalyzers applies each analyzer to each package (respecting
// AppliesTo and IncludeTests) and returns all diagnostics in
// deterministic order. Every pass shares one Shared state, so
// module-wide summaries (the flow call graph) are built once.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, fset *token.FileSet, moduleRoot string) ([]Diagnostic, error) {
	return RunAnalyzersOn(pkgs, pkgs, analyzers, fset, moduleRoot)
}

// RunAnalyzersOn runs the analyzers over `selected` while sharing
// whole-module state built from `loaded`. Pattern-filtered driver runs
// pass every loaded package as `loaded` so interprocedural facts (the
// flow call graph's summaries) still resolve callees outside the
// selection; diagnostics are only produced for `selected`.
func RunAnalyzersOn(loaded, selected []*Package, analyzers []*Analyzer, fset *token.FileSet, moduleRoot string) ([]Diagnostic, error) {
	shared := NewShared(loaded)
	var all []Diagnostic
	for _, pkg := range selected {
		for _, a := range analyzers {
			if pkg.Test && !a.IncludeTests {
				continue
			}
			base := pkg.BasePath
			if base == "" {
				base = pkg.Path
			}
			if a.AppliesTo != nil && !a.AppliesTo(base) {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				ModuleRoot: moduleRoot,
				Shared:     shared,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
			all = append(all, pass.Diagnostics()...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}
