package flow

import (
	"go/ast"
	"go/token"
	"go/types"

	"physdes/internal/analysis"
)

// ZeroallocMarker is the contract annotation: a function declared
// //physdes:zeroalloc must not allocate in steady state.
const ZeroallocMarker = "zeroalloc"

// AllocOKMarker suppresses one allocation site inside a zeroalloc
// call chain with a justification (cold path, amortized growth).
const AllocOKMarker = "allocok"

// AllocSite is one potential heap allocation in a function body.
type AllocSite struct {
	Pos token.Pos
	// What describes the site for diagnostics, e.g. "make([]int, n)".
	What string
	// Suppressed sites carry a //physdes:allocok annotation and are
	// excluded from summaries; Justification may be empty (analyzers
	// report that as its own finding).
	Suppressed    bool
	Justification string
}

// AllocSites returns the function's allocation sites (excluding calls —
// call edges are judged against callee summaries by the analyzer).
func (ix *Index) AllocSites(fi *FuncInfo) []AllocSite {
	return fi.allocSites
}

// allocAllowlist are stdlib callees known not to allocate, so zeroalloc
// chains may use them: all of math, math/bits and sync/atomic, the
// in-place slices sorters and binary searches the split-search hot path
// relies on, the mutex, condition-variable and sync.Map reads the memo
// caches take, the clock reads behind obs.Stopwatch, the strings
// searches that return indexes or sub-slices of their input, and the
// strconv appenders, which write into the caller's buffer (the what-if
// probe formats into a stack array large enough for any value). Methods
// are keyed by package path and method name.
var allocAllowedFuncs = map[string]bool{
	"slices.Sort":             true,
	"slices.SortFunc":         true,
	"slices.BinarySearch":     true,
	"slices.BinarySearchFunc": true,

	"sync.Lock":      true,
	"sync.Unlock":    true,
	"sync.RLock":     true,
	"sync.RUnlock":   true,
	"sync.Wait":      true,
	"sync.Broadcast": true,
	"sync.Load":      true,

	"time.Now":     true,
	"time.Since":   true,
	"time.IsZero":  true,
	"time.Seconds": true,

	"strings.HasPrefix": true,
	"strings.IndexAny":  true,
	"strings.Trim":      true,

	"strconv.AppendFloat": true,
	"strconv.AppendInt":   true,
}

var allocAllowedPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// allocAllowedBuiltins never allocate (append, make and new are
// recorded as sites instead).
var allocAllowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "min": true, "max": true,
	"delete": true, "clear": true, "panic": true, "real": true,
	"imag": true, "print": true, "println": true, "recover": true,
}

// CallAllocates judges one call edge for the zeroalloc contract: it
// returns a non-empty description when the callee may allocate. Module
// callees are judged by their summaries; functions carrying the
// zeroalloc contract are trusted (they are checked at their own
// declaration). Unknown callees — dynamic calls and stdlib outside the
// allowlist — are conservatively assumed to allocate.
func (ix *Index) CallAllocates(fi *FuncInfo, call Call) string {
	info := fi.Pkg.Info
	// Conversions are judged as alloc sites, not call edges.
	if tv, ok := info.Types[call.Expr.Fun]; ok && tv.IsType() {
		return ""
	}
	if call.Callee == nil {
		if id, ok := ast.Unparen(call.Expr.Fun).(*ast.Ident); ok {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				if allocAllowedBuiltins[id.Name] {
					return ""
				}
				// append/make/new arrive as alloc sites.
				return ""
			}
		}
		return "dynamic call " + analysis.ExprString(ix.Fset, call.Expr.Fun) + " cannot be proven allocation-free"
	}
	callee := ix.Lookup(call.Callee)
	if callee != nil {
		if callee.Zeroalloc {
			return ""
		}
		if callee.Allocates {
			return "calls " + call.Callee.Name() + ", which allocates (" + callee.AllocReason + "); annotate the callee //physdes:zeroalloc or suppress with //physdes:allocok <why>"
		}
		return ""
	}
	// Outside the module: stdlib or generated — allowlist or assume the
	// worst.
	if pkg := call.Callee.Pkg(); pkg != nil {
		if allocAllowedPkgs[pkg.Path()] {
			return ""
		}
		if allocAllowedFuncs[pkg.Path()+"."+call.Callee.Name()] {
			return ""
		}
		return "calls " + pkg.Path() + "." + call.Callee.Name() + ", which is outside the module and not on the no-alloc allowlist"
	}
	return ""
}

// computeAllocSummaries scans every function's allocation sites, then
// propagates "known to allocate" up the call graph to fixpoint. A
// function summarizes as allocating when it holds an unsuppressed
// allocation site, calls an allocating module function, or calls an
// unknown (dynamic / non-allowlisted stdlib) function. zeroalloc-
// annotated functions summarize clean by contract.
func (ix *Index) computeAllocSummaries() {
	for _, fi := range ix.all {
		fi.allocSites = scanAllocSites(ix, fi)
		if fi.Zeroalloc {
			continue
		}
		for _, s := range fi.allocSites {
			if !s.Suppressed {
				fi.Allocates = true
				fi.AllocReason = s.What
				break
			}
		}
	}
	for {
		changed := false
		for _, fi := range ix.all {
			if fi.Allocates || fi.Zeroalloc || fi.Decl.Body == nil {
				continue
			}
			for _, call := range fi.Calls {
				if _, ok := ix.SiteAnnotation(fi, AllocOKMarker, call.Expr.Pos()); ok {
					continue
				}
				if why := ix.CallAllocates(fi, call); why != "" {
					fi.Allocates = true
					fi.AllocReason = why
					changed = true
					break
				}
			}
		}
		if !changed {
			return
		}
	}
}

// scanAllocSites walks one body for allocation expressions: make/new,
// growing appends, escaping composite literals, escaping closures,
// string concatenation and allocating conversions.
func scanAllocSites(ix *Index, fi *FuncInfo) []AllocSite {
	if fi.Decl.Body == nil {
		return nil
	}
	info := fi.Pkg.Info
	ann := ix.Annotations(fi.File, AllocOKMarker)
	var sites []AllocSite
	add := func(pos token.Pos, what string) {
		s := AllocSite{Pos: pos, What: what}
		if just, ok := analysis.Annotated(ann, ix.Fset, pos); ok {
			s.Suppressed, s.Justification = true, just
		}
		sites = append(sites, s)
	}
	// Parent links distinguish escaping composite literals/closures from
	// value uses the compiler keeps off the heap. Function literal
	// bodies are scanned like any other code: a closure run by
	// slices.SortFunc allocating per comparison breaks the contract just
	// as surely as a direct allocation.
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	ast.Inspect(fi.Decl.Body, func(m ast.Node) bool {
		switch e := m.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "make":
						add(e.Pos(), "make("+analysis.ExprString(ix.Fset, e.Args[0])+")")
					case "new":
						add(e.Pos(), "new("+analysis.ExprString(ix.Fset, e.Args[0])+")")
					case "append":
						add(e.Pos(), "append may grow its backing array")
					}
					return true
				}
			}
			if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
				if convAllocates(tv.Type, e, info) {
					add(e.Pos(), "conversion "+analysis.ExprString(ix.Fset, e.Fun)+"(…) copies its operand")
				}
			}
		case *ast.CompositeLit:
			if compositeAllocates(e, effectiveParent(parents, e), info) {
				add(e.Pos(), "composite literal "+shortType(info, e)+" escapes to the heap")
			}
		case *ast.FuncLit:
			// A literal invoked or passed directly at a call site can
			// stay on the stack; one that is assigned, stored or
			// returned escapes (and captured variables move with it).
			if _, isCallArg := effectiveParent(parents, e).(*ast.CallExpr); !isCallArg {
				add(e.Pos(), "closure escapes (assigned, stored or returned); named capture-free functions stay off the heap")
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if tv, ok := info.Types[e]; ok && isStringType(tv.Type) {
					add(e.Pos(), "string concatenation allocates")
				}
			}
		}
		return true
	})
	return sites
}

// effectiveParent walks up through parentheses and key/value wrappers
// to the node that determines escape. A literal nested inside another
// composite literal reports the enclosing literal as parent, so only
// the outermost literal counts as one site.
func effectiveParent(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	p := parents[n]
	for {
		switch p.(type) {
		case *ast.ParenExpr, *ast.KeyValueExpr:
			p = parents[p]
		default:
			return p
		}
	}
}

// compositeAllocates decides whether a composite literal is heap-bound:
// slice, map and channel literals always allocate; struct and array
// literals only when their address is taken or they convert to an
// interface.
func compositeAllocates(lit *ast.CompositeLit, parent ast.Node, info *types.Info) bool {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return true
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Chan:
		return true
	}
	if u, ok := parent.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return true
	}
	return false
}

// convAllocates reports conversions that copy: string <-> []byte/[]rune
// and conversions to a slice type.
func convAllocates(target types.Type, call *ast.CallExpr, info *types.Info) bool {
	if len(call.Args) != 1 {
		return false
	}
	argTV, ok := info.Types[call.Args[0]]
	if !ok || argTV.Type == nil {
		return false
	}
	if _, toSlice := target.Underlying().(*types.Slice); toSlice {
		return isStringType(argTV.Type)
	}
	if isStringType(target) {
		_, fromSlice := argTV.Type.Underlying().(*types.Slice)
		return fromSlice
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func shortType(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return "<unknown>"
	}
	return types.TypeString(tv.Type, func(p *types.Package) string { return p.Name() })
}
