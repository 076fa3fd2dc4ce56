package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrIgnore flags statements that call a function returning an error and
// drop the result on the floor. An explicit `_ =` assignment is accepted as
// a reviewed decision; a bare call statement is treated as an oversight.
// Deferred and go-routine calls are out of scope (defer f.Close() on a
// read-only file is the dominant, harmless idiom), as are writers that are
// documented never to fail: fmt printing to standard output,
// strings.Builder, and bytes.Buffer.
//
// Sticky-error results are held to a stricter standard. A module-local
// method named Close, Err, Flush, or Save that returns an error is the
// final accounting of everything that went wrong earlier ((*obs.Journal)
// accumulates its first write error and reports it from Close/Err), so
// discarding it loses failures that were deliberately deferred until
// now. For those calls even the `_ =` and bare-defer forms are flagged:
// the error must reach a check, typically via a deferred closure that
// folds it into a named return.
var ErrIgnore = &Analyzer{
	Name: "errignore",
	Doc:  "flag call statements whose error result is silently dropped, including _ = and defer forms for sticky errors",
	Run:  runErrIgnore,
}

var errorType = types.Universe.Lookup("error").Type()

// stickyNames are the module-local method names whose error result is a
// sticky accumulation rather than a per-call failure.
var stickyNames = map[string]bool{
	"Close": true,
	"Err":   true,
	"Flush": true,
	"Save":  true,
}

func runErrIgnore(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !returnsError(pass, call) || exemptCall(pass, call) {
					return true
				}
				pass.Reportf(call.Pos(),
					"error result of %s is silently dropped; handle it or assign to _ explicitly",
					calleeName(call))
			case *ast.AssignStmt:
				// `_ = x.Close()`: fine in general, not for sticky errors.
				if len(stmt.Rhs) != 1 || !allBlank(stmt.Lhs) {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				if returnsError(pass, call) && stickyCall(pass, call) {
					pass.Reportf(call.Pos(),
						"sticky error of %s is discarded with _ =; it is the final accounting of earlier failures and must be checked",
						calleeName(call))
				}
			case *ast.DeferStmt:
				// `defer x.Close()`: fine in general, not for sticky errors.
				if returnsError(pass, stmt.Call) && stickyCall(pass, stmt.Call) {
					pass.Reportf(stmt.Call.Pos(),
						"deferred %s discards its sticky error; fold it into a named return from a deferred closure",
						calleeName(stmt.Call))
				}
			}
			return true
		})
	}
	return nil
}

// allBlank reports whether every assignment target is the blank
// identifier.
func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// stickyCall reports whether call invokes a module-local sticky-error
// method (Close/Err/Flush/Save on a type declared in the same module as
// the package under analysis). Standard-library and third-party Close
// methods keep the relaxed rules.
func stickyCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || !stickyNames[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, okp := t.(*types.Pointer); okp {
		t = p.Elem()
	}
	named, okn := t.(*types.Named)
	if !okn || named.Obj().Pkg() == nil {
		return false
	}
	return firstPathSegment(named.Obj().Pkg().Path()) == firstPathSegment(pass.Pkg.Path())
}

// firstPathSegment returns the import path up to the first slash — the
// module root for module-local packages.
func firstPathSegment(path string) string {
	first, _, _ := strings.Cut(path, "/")
	return first
}

// returnsError reports whether the call's (last) result is an error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypesInfo.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	return types.Identical(t, errorType)
}

// exemptCall reports whether the call belongs to the never-fails allowlist.
func exemptCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return false
	}
	// Methods on writers that never return a non-nil error.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return neverFailingWriter(sig.Recv().Type())
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println":
		return true // best-effort CLI output to stdout
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		if neverFailingWriter(pass.TypesInfo.TypeOf(call.Args[0])) {
			return true
		}
		return isStdStream(pass, call.Args[0])
	}
	return false
}

// calleeFunc resolves the called *types.Func, or nil for indirect calls.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleeName renders the callee for the diagnostic message.
func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "call"
}

// neverFailingWriter reports whether t is (a pointer to) strings.Builder or
// bytes.Buffer, whose Write methods are documented to always succeed.
func neverFailingWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// isStdStream reports whether e is the selector os.Stdout or os.Stderr.
func isStdStream(pass *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	path, _ := qualifierPath(pass.TypesInfo, sel)
	return path == "os" && (sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr")
}
