// Package lockcheck enforces the repository's locking discipline.
//
// Two checks:
//
//  1. Critical-section shape: a sync.Mutex/RWMutex Lock (or RLock) must
//     be immediately followed by the matching deferred Unlock. A tight
//     hand-written critical section (explicit Unlock in the same
//     statement list with no return in between) is tolerated — hot
//     paths may avoid defer — but any early return
//     between Lock and Unlock, or a Lock whose Unlock lives in another
//     block, is an error. Deliberate cross-block protocols can be
//     suppressed with a justified annotation:
//
//     //physdes:manualunlock handed to caller via returned release func
//
//  2. Lock copies: a function parameter or method receiver whose type
//     (transitively, by value) contains a sync or sync/atomic type
//     copies live synchronization state. This overlaps go vet's
//     copylocks on assignments but also rejects by-value atomics, which
//     vet permits and the metrics registry must not.
package lockcheck

import (
	"go/ast"
	"go/types"

	"physdes/internal/analysis"
	"physdes/internal/analysis/flow"
)

// Marker is the suppression annotation suffix: //physdes:manualunlock.
const Marker = "manualunlock"

var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "require defer Unlock adjacency after Lock and forbid locks or atomics passed by value",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// Annotation maps come through the shared flow index so the scan is
	// memoized once per file across the whole suite.
	ix := flow.Of(pass)
	for _, file := range pass.Files {
		ann := ix.Annotations(file, Marker)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				checkStmts(pass, ann, n.List)
			case *ast.CaseClause:
				checkStmts(pass, ann, n.Body)
			case *ast.CommClause:
				checkStmts(pass, ann, n.Body)
			case *ast.FuncDecl:
				checkSignature(pass, n)
			}
			return true
		})
	}
	return nil
}

// asLockCall returns the selector of a sync (R)Lock call statement, or
// nil. Selections resolves promoted methods, so both mu.Lock() and an
// embedded c.Lock() are recognized.
func asLockCall(pass *analysis.Pass, stmt ast.Stmt) (*ast.SelectorExpr, string) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil, ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" {
		return nil, ""
	}
	obj, ok := pass.Info.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil, ""
	}
	return sel, name
}

// unlockCall matches a call expression `recvText.unlockName()`.
func unlockCall(pass *analysis.Pass, e ast.Expr, recvText, unlockName string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != unlockName {
		return false
	}
	return analysis.ExprString(pass.Fset, sel.X) == recvText
}

// checkStmts enforces check 1 on one statement list.
func checkStmts(pass *analysis.Pass, ann map[int]string, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		sel, lockName := asLockCall(pass, stmt)
		if sel == nil {
			continue
		}
		recvText := analysis.ExprString(pass.Fset, sel.X)
		unlockName := "Unlock"
		if lockName == "RLock" {
			unlockName = "RUnlock"
		}
		if reason, ok := analysis.Annotated(ann, pass.Fset, stmt.Pos()); ok {
			if reason == "" {
				pass.Reportf(stmt.Pos(),
					"//physdes:%s needs a justification explaining the unlock protocol", Marker)
			}
			continue
		}
		if i+1 < len(stmts) {
			if ds, ok := stmts[i+1].(*ast.DeferStmt); ok && unlockCall(pass, ds.Call, recvText, unlockName) {
				continue
			}
		}
		// No adjacent defer: tolerate a tight explicit unlock in the
		// same statement list, provided no return can skip it.
		explicit := -1
		for j := i + 1; j < len(stmts); j++ {
			if es, ok := stmts[j].(*ast.ExprStmt); ok && unlockCall(pass, es.X, recvText, unlockName) {
				explicit = j
				break
			}
		}
		if explicit < 0 {
			pass.Reportf(stmt.Pos(),
				"%s.%s() is not followed by `defer %s.%s()` in this block; defer the unlock (or annotate //physdes:%s <why>)",
				recvText, lockName, recvText, unlockName, Marker)
			continue
		}
		for j := i + 1; j < explicit; j++ {
			if ret := findReturn(stmts[j]); ret != nil {
				pass.Reportf(ret.Pos(),
					"return inside the critical section of %s.%s() before %s(); use `defer %s.%s()` immediately after the Lock",
					recvText, lockName, unlockName, recvText, unlockName)
			}
		}
	}
}

// findReturn reports a return statement nested in stmt, not descending
// into function literals (their returns leave a different frame).
func findReturn(stmt ast.Stmt) *ast.ReturnStmt {
	var found *ast.ReturnStmt
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = n
			return false
		}
		return true
	})
	return found
}

// checkSignature enforces check 2 on a function's receiver and params.
func checkSignature(pass *analysis.Pass, fd *ast.FuncDecl) {
	report := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			tv, ok := pass.Info.Types[field.Type]
			if !ok || tv.Type == nil {
				continue
			}
			if lock := containsLock(tv.Type, nil); lock != "" {
				pass.Reportf(field.Pos(),
					"%s of %s is passed by value and contains %s; pass a pointer so the synchronization state is shared, not copied",
					what, fd.Name.Name, lock)
			}
		}
	}
	report(fd.Recv, "receiver")
	if fd.Type.Params != nil {
		report(fd.Type.Params, "parameter")
	}
}

// containsLock returns the name of a sync/atomic type reachable from t
// by value, or "".
func containsLock(t types.Type, seen map[*types.Named]bool) string {
	t = types.Unalias(t)
	if n, ok := t.(*types.Named); ok {
		if seen[n] {
			return ""
		}
		if seen == nil {
			seen = map[*types.Named]bool{}
		}
		seen[n] = true
		if pkg := n.Obj().Pkg(); pkg != nil {
			if p := pkg.Path(); p == "sync" || p == "sync/atomic" {
				if _, isStruct := n.Underlying().(*types.Struct); isStruct {
					return p + "." + n.Obj().Name()
				}
			}
		}
		return containsLock(n.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if lock := containsLock(u.Field(i).Type(), seen); lock != "" {
				return lock
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return ""
}
