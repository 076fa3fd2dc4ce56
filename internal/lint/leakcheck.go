package lint

import "go/ast"

// LeakCheck flags goroutines with no reachable shutdown path. For every
// `go` statement it takes the CFG of the spawned function — the one
// module-local function or literal its call site resolves to — and
// requires the synthetic exit block to be reachable from entry. A
// goroutine whose body is an unconditional loop with no break, return, or
// terminating range/receive cannot be stopped and outlives every
// controller shutdown:
//
//	go func() {
//		for {
//			work() // flagged: no path ever leaves the loop
//		}
//	}()
//
// Threading a done channel (`case <-done: return`), ranging over a
// closable channel, or any conditional return satisfies the check.
// A call site that resolves to no module-local function (the stdlib, a
// dynamic call) or to several (interface dispatch) is skipped.
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

// spawnedNode returns the function gs starts, read from its resolved call
// site: nil unless the site reaches a module-local function.
func spawnedNode(pass *Pass, gs *ast.GoStmt) (*FuncNode, string) {
	site := pass.Prog.SiteAt(gs.Call)
	if site == nil || site.Callee == nil {
		return nil, ""
	}
	callee := site.Callee
	if callee.Fn == nil {
		return callee, "func literal"
	}
	return callee, callee.Fn.Name()
}
