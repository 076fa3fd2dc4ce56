package lint

import (
	"go/ast"
	"go/types"
)

// LeakCheck flags goroutines with no reachable shutdown path. For every
// `go` statement it takes the CFG of the spawned function — a literal,
// or a same-package named function/method — and requires the synthetic
// exit block to be reachable from entry. A goroutine whose body is an
// unconditional loop with no break, return, or terminating range/receive
// cannot be stopped and outlives every controller shutdown:
//
//	go func() {
//		for {
//			work() // flagged: no path ever leaves the loop
//		}
//	}()
//
// Threading a done channel (`case <-done: return`), ranging over a
// closable channel, or any conditional return satisfies the check.
// Spawned functions from other packages cannot be analyzed and are
// skipped.
var LeakCheck = &Analyzer{
	Name: "leakcheck",
	Doc:  "flag go statements whose goroutine has no reachable termination path (unstoppable goroutine)",
	Run:  runLeakCheck,
}

func runLeakCheck(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			node, name := spawnedNode(pass, gs)
			if node != nil && !pass.Prog.CFG(node).ExitReachable() {
				pass.Reportf(gs.Pos(), "goroutine %s has no reachable termination path; thread a shutdown signal (done channel or closable work channel)", name)
			}
			return true
		})
	}
	return nil
}

// spawnedNode resolves the function started by gs to its node: a function
// literal, or a function/method declared in the package under analysis.
// Returns nil for bodies we cannot see.
func spawnedNode(pass *Pass, gs *ast.GoStmt) (*FuncNode, string) {
	var callee *ast.Ident
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return pass.Prog.LitNodeOf(fun), "func literal"
	case *ast.Ident:
		callee = fun
	case *ast.SelectorExpr:
		callee = fun.Sel
	default:
		return nil, ""
	}
	if fn, ok := pass.TypesInfo.Uses[callee].(*types.Func); ok {
		if node := pass.Prog.NodeOf(fn); node != nil && node.Pkg == pass.pkg() {
			return node, fn.Name()
		}
	}
	return nil, ""
}
