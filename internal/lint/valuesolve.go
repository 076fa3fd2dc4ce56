package lint

// Interprocedural half of the value-flow engine: the summary update the
// Program's one fixpoint runs (summary.go), the reporting pass NewProgram
// runs on the solved summaries, and the finding store the
// streamflow/detflow/nonneg analyzers read.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// valueFindings returns the engine findings of one kind for one package,
// in deterministic (node, source) order.
func (p *Program) valueFindings(pkg *Package, kind vfKind) []vfFinding {
	var out []vfFinding
	for _, f := range p.dirs.pkgFind[pkg] {
		if f.kind == kind {
			out = append(out, f)
		}
	}
	for _, n := range p.NodesOf(pkg) {
		for _, f := range p.findings[n] {
			if f.kind == kind {
				out = append(out, f)
			}
		}
	}
	return out
}

// updateFlow recomputes one node's value-flow facts from the current callee
// summaries and merges them in; reports whether anything grew.
func (p *Program) updateFlow(n *FuncNode) bool {
	fl := &vfFlow{p: p, n: n, lf: p.local[n]}
	return mergeValueSummary(p.summaries[n].flow, fl.extractSummary())
}

// extractSummary solves one local pass and reads the node's summary facts
// out of it: return taints and parameter-to-sink flows.
func (fl *vfFlow) extractSummary() *valueSummary {
	sum := newValueSummary(fl.n)
	replay[*vfState](fl.p.CFG(fl.n), fl, func(node ast.Node, st *vfState) {
		if ret, ok := node.(*ast.ReturnStmt); ok {
			fl.recordReturn(ret, st, sum)
		}
		inspectShallow(node, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			for i, arg := range call.Args {
				_, _, marks := fl.taintOf(arg, st)
				if marks == 0 {
					continue
				}
				desc, _ := fl.sinkDescAt(call, i)
				if desc == "" {
					continue
				}
				for bit := 0; bit < len(sum.paramSink) && bit < 64; bit++ {
					if marks&(1<<uint(bit)) != 0 && sum.paramSink[bit] == "" {
						sum.paramSink[bit] = desc
						sum.paramSinkTr[bit] = &Trace{Pos: call.Pos(), What: desc, EntryPos: call.Pos()}
					}
				}
			}
			return true
		})
	})
	return sum
}

// recordReturn folds the taint of each returned value into the summary.
func (fl *vfFlow) recordReturn(ret *ast.ReturnStmt, st *vfState, sum *valueSummary) {
	record := func(str streamSet, ord *Trace, marks uint64) {
		for name, tr := range str {
			if _, ok := sum.returnStreams[name]; !ok {
				if sum.returnStreams == nil {
					sum.returnStreams = make(map[string]*Trace)
				}
				sum.returnStreams[name] = tr
			}
		}
		if ord != nil && sum.returnsOrdered == nil {
			sum.returnsOrdered = ord
		}
		sum.returnsParam |= marks
	}
	if len(ret.Results) > 0 {
		for _, res := range ret.Results {
			record(fl.taintOf(res, st))
		}
		return
	}
	for _, obj := range namedResultObjs(fl.n) {
		if obj != nil {
			record(st.taintsAt(objKey(obj)))
		}
	}
}

// namedResultObjs returns the named result objects of a function, if any.
func namedResultObjs(n *FuncNode) []types.Object {
	var ft *ast.FuncType
	switch {
	case n.Decl != nil:
		ft = n.Decl.Type
	case n.Lit != nil:
		ft = n.Lit.Type
	}
	if ft == nil || ft.Results == nil {
		return nil
	}
	var out []types.Object
	for _, f := range ft.Results.List {
		for _, name := range f.Names {
			out = append(out, n.Pkg.Info.Defs[name])
		}
	}
	return out
}

// sinkDescAt reports whether passing argument i of the call hands the
// value to a deterministic-output sink, directly (//rexlint:detsink) or
// through a callee whose parameter reaches one; the trace carries the
// blame chain.
func (fl *vfFlow) sinkDescAt(call *ast.CallExpr, argIdx int) (string, *Trace) {
	dirs := fl.p.dirs
	site := fl.p.SiteAt(call)
	if site == nil {
		return "", nil
	}
	for _, callee := range site.Callees {
		if dirs.sources[callee] {
			continue
		}
		if desc, ok := dirs.sinks[callee]; ok {
			d := fmt.Sprintf("%s sink %s", desc, callee.Name())
			return d, &Trace{Pos: call.Pos(), What: d, EntryPos: call.Pos()}
		}
		sum := fl.p.summaries[callee].flow
		if len(sum.paramSink) == 0 {
			continue
		}
		i := min(argIdx, len(sum.paramSink)-1) // variadic tail shares the last param
		if d := sum.paramSink[i]; d != "" {
			return d, wrapVia(sum.paramSinkTr[i], callee.Name(), call.Pos())
		}
	}
	return "", nil
}

// checkFlow runs the reporting pass over one node and returns its
// findings.
func (p *Program) checkFlow(n *FuncNode) []vfFinding {
	fl := &vfFlow{p: p, n: n, lf: p.local[n]}
	var finds []vfFinding
	report := func(kind vfKind, pos token.Pos, format string, args ...any) {
		finds = append(finds, vfFinding{kind: kind, pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	replay[*vfState](p.CFG(n), fl, func(node ast.Node, st *vfState) {
		fl.checkNode(node, st, report)
	})
	return finds
}

// checkNode applies every diagnostic rule to one straight-line node with
// its pre-state.
func (fl *vfFlow) checkNode(node ast.Node, st *vfState, report func(vfKind, token.Pos, string, ...any)) {
	switch s := node.(type) {
	case *ast.IncDecStmt:
		if key, ok := fl.counterKeyOf(s.X); ok && s.Tok == token.DEC && st.getLB(key) <= 0 {
			report(vfNonneg, s.Pos(), "%s may go negative: decrement of //rexlint:nonneg counter at proven lower bound %d",
				renderPath(s.X), st.getLB(key))
		}
	case *ast.AssignStmt:
		fl.checkCounterAssign(s, st, report)
	}
	inspectShallow(node, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			fl.checkCall(call, st, report)
		}
		return true
	})
}

// checkCounterAssign reports counter assignments that cannot keep the
// non-negativity invariant.
func (fl *vfFlow) checkCounterAssign(s *ast.AssignStmt, st *vfState, report func(vfKind, token.Pos, string, ...any)) {
	info := fl.n.Pkg.Info
	for i, lhs := range s.Lhs {
		key, ok := fl.counterKeyOf(lhs)
		if !ok {
			continue
		}
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else {
			continue
		}
		switch s.Tok {
		case token.SUB_ASSIGN:
			c, isConst := constIntOf(info, rhs)
			switch {
			case !isConst:
				report(vfNonneg, s.Pos(), "%s may go negative: decrement of //rexlint:nonneg counter by a non-constant amount cannot be proven",
					renderPath(lhs))
			case c > 0 && st.getLB(key) < c:
				report(vfNonneg, s.Pos(), "%s may go negative: decrement by %d at proven lower bound %d",
					renderPath(lhs), c, st.getLB(key))
			}
		case token.ADD_ASSIGN:
			if c, isConst := constIntOf(info, rhs); isConst && c < 0 && st.getLB(key) < -c {
				report(vfNonneg, s.Pos(), "%s may go negative: increment by negative constant %d at proven lower bound %d",
					renderPath(lhs), c, st.getLB(key))
			}
		case token.ASSIGN, token.DEFINE:
			if c, isConst := constIntOf(info, rhs); isConst && c < 0 {
				report(vfNonneg, s.Pos(), "//rexlint:nonneg counter %s assigned negative constant %d", renderPath(lhs), c)
			}
		}
	}
}

// checkCall applies the stream, determinism, and precondition rules to one
// call expression.
func (fl *vfFlow) checkCall(call *ast.CallExpr, st *vfState, report func(vfKind, token.Pos, string, ...any)) {
	n, lf, dirs := fl.n, fl.lf, fl.p.dirs
	info := n.Pkg.Info
	site := fl.p.SiteAt(call)
	if site == nil {
		return
	}

	// Rule 1: streamsource calls — constant name, declared ownership.
	isSource := false
	for _, callee := range site.Callees {
		if !dirs.sources[callee] {
			continue
		}
		isSource = true
		name, okName := streamNameArg(info, call)
		switch {
		case !okName:
			report(vfStream, call.Pos(), "stream name passed to %s must be a named constant, not a dynamic expression", callee.Name())
		case isBasicStringLit(call.Args[0]):
			report(vfStream, call.Args[0].Pos(), "stream name %q is a string literal; use the exported stream-name constant", name)
		}
		if okName && !slices.Contains(lf.declared, name) {
			report(vfStream, call.Pos(), "%s draws from RNG stream %q but declares %s; add //rexlint:stream %s to its doc comment",
				n.Name(), name, declList(lf.declared), name)
		}
	}
	if isSource {
		return // the name argument is not a hand-off
	}

	// Rule 2: drawing through a stream-tainted receiver (stdlib method
	// call, e.g. r.Intn on a *rand.Rand obtained from Stream).
	if site.RecvExpr != nil && len(site.Callees) == 0 && len(site.Std) > 0 {
		if key, ok := exprKey(info, site.RecvExpr); ok {
			str, _, _ := st.taintsAt(key)
			for _, name := range sortedKeys(str) {
				if !slices.Contains(lf.declared, name) {
					report(vfStream, call.Pos(), "%s draws from RNG stream %q but declares %s%s; add //rexlint:stream %s to its doc comment",
						n.Name(), name, declList(lf.declared), str[name].Chain(), name)
				}
			}
		}
	}

	// Rules 3–5: per-argument hand-off, sink, and precondition checks.
	for i, arg := range call.Args {
		str, ord, _ := fl.taintOf(arg, st)
		if len(str) > 0 {
			for _, name := range sortedKeys(str) {
				tr := str[name]
				if len(site.Callees) > 0 {
					for _, callee := range site.Callees {
						if !slices.Contains(fl.p.local[callee].declared, name) {
							report(vfStream, arg.Pos(), "%s passes RNG stream %q to %s, which does not declare it (//rexlint:stream)%s",
								n.Name(), name, callee.Name(), tr.Chain())
						}
					}
				} else if !slices.Contains(lf.declared, name) {
					report(vfStream, arg.Pos(), "%s passes RNG stream %q to %s but declares %s%s; add //rexlint:stream %s to its doc comment",
						n.Name(), name, calleeLabel(site), declList(lf.declared), tr.Chain(), name)
				}
			}
		}
		if ord != nil {
			if desc, _ := fl.sinkDescAt(call, i); desc != "" {
				report(vfDet, arg.Pos(), "value ordered by %s flows into %s without sort or canonicalization%s",
					ord.What, desc, ord.Chain())
			}
		}
	}

	// Rule 6: sinks invoked inside map iteration emit in nondeterministic
	// order even with clean arguments.
	if inRanges(lf.mapRanges, call.Pos()) {
		for _, callee := range site.Callees {
			if desc, ok := dirs.sinks[callee]; ok {
				report(vfDet, call.Pos(), "%s sink %s called inside map iteration: emission order is nondeterministic",
					desc, callee.Name())
			}
		}
	}

	// Rule 7: callee entry preconditions (//rexlint:requires) on the
	// receiver's counters, the ones the callee's entry state assumes.
	if site.RecvExpr != nil {
		if recvKey, ok := exprKey(info, site.RecvExpr); ok {
			for _, callee := range site.Callees {
				for _, f := range fl.p.local[callee].recvFields {
					k := dirs.requires[callee][f]
					if lb := st.getLB(recvKey + "." + f); lb < k {
						report(vfNonneg, call.Pos(), "call to %s requires %s >= %d (//rexlint:requires); caller's proven lower bound is %d",
							callee.Name(), f, k, lb)
					}
				}
			}
		}
	}
}

func isBasicStringLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}

func declList(declared []string) string {
	if len(declared) == 0 {
		return "no streams"
	}
	quoted := make([]string, len(declared))
	for i, d := range declared {
		quoted[i] = fmt.Sprintf("%q", d)
	}
	return strings.Join(quoted, ", ")
}

// calleeLabel renders the target of a non-local call for diagnostics.
func calleeLabel(site *CallSite) string {
	if len(site.Std) > 0 {
		return site.Std[0]
	}
	return "a dynamic call"
}
