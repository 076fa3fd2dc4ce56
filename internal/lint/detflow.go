package lint

import (
	"go/ast"
	"slices"
)

// DetFlow checks output determinism in the observability, simulator and
// control packages, one function at a time on the local taint flow
// (taint.go). Map iteration (range variables, maps.Keys/Values/All) and
// the receives of a select with several receive arms order a value until
// a sort./slices. call sorts it; a write into a map element absorbs the
// order. An ordered argument to a //rexlint:detsink function (journal
// writes, Prometheus exposition, fixed-format reports) is a finding, and
// so is a sink called inside a map-range body: the call order itself is
// nondeterministic. Callees are not followed;
// TestJournalDeterministicAcrossGOMAXPROCS, TestTraceJournalDeterministic
// and TestSimDeterministicReport hold the contract at run time.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc:  "forbid map/select-ordered values from reaching journal, exposition, or report sinks (//rexlint:detsink) unless sorted or canonicalized",
	Run: func(pass *Pass) error {
		for _, n := range pass.Prog.NodesOf(pass.pkg()) {
			checkOrder(pass, n)
		}
		return nil
	},
}

// checkOrder solves one function's order taint and reports its sink calls;
// a function with no map range, multi-arm select or maps.Keys is skipped.
func checkOrder(pass *Pass, n *FuncNode) {
	info := n.Pkg.Info
	var ranges []posRange
	selected := map[ast.Expr]bool{} // receives of multi-arm selects
	inspectShallow(n.Body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.RangeStmt:
			if isMap(info.TypeOf(s.X)) {
				ranges = append(ranges, posRange{s.Body.Pos(), s.Body.End()})
			}
		case *ast.SelectStmt:
			var recvs []ast.Expr // one per receive arm, nil where nothing is assigned
			for _, c := range s.Body.List {
				switch comm := c.(*ast.CommClause).Comm.(type) {
				case *ast.AssignStmt:
					recvs = append(recvs, ast.Unparen(comm.Rhs[0]))
				case *ast.ExprStmt:
					recvs = append(recvs, nil)
				}
			}
			for _, r := range recvs {
				if len(recvs) > 1 && r != nil {
					selected[r] = true
				}
			}
		}
		return true
	})
	ordered := func(s *CallSite) bool { return s.Callee == nil && s.std().order == orderSource }
	if len(ranges) == 0 && len(selected) == 0 && !slices.ContainsFunc(n.Calls, func(s CallSite) bool { return ordered(&s) }) {
		return
	}
	tf := &taintFlow{info: info, prog: pass.Prog, order: true, source: func(e ast.Expr) taint {
		call, _ := e.(*ast.CallExpr)
		if s := pass.Prog.SiteAt(call); s != nil && ordered(s) {
			return taint{s.Std + " iteration order": ""}
		} else if selected[e] {
			return taint{"select arm completion order": ""}
		}
		return nil
	}}
	tf.eachCall(n, func(call *ast.CallExpr, f taintFact) {
		sink := calleeWhere(pass.Prog.SiteAt(call), func(c *FuncNode) bool { return c.Sink != "" })
		if sink == nil {
			return
		}
		for _, arg := range call.Args {
			if t := tf.taintOf(arg, f); len(t) > 0 {
				pass.Reportf(arg.Pos(), "value ordered by %s flows into %s sink %s without sort or canonicalization",
					sortedKeys(t)[0], sink.Sink, sink.Name())
			}
		}
		if inRanges(ranges, call.Pos()) {
			pass.Reportf(call.Pos(), "%s sink %s called inside map iteration: emission order is nondeterministic",
				sink.Sink, sink.Name())
		}
	})
}
