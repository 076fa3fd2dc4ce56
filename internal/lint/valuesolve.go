package lint

// Interprocedural half of the value-flow engine: the bottom-up summary
// fixpoint over the call graph, the reporting pass, and the finding store
// the streamflow/detflow/nonneg analyzers read. Built lazily per Program
// so fixture runs of unrelated analyzers pay nothing.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// maxVFSweeps is a termination backstop: every lattice is finite and every
// merge monotone, so real programs converge in a handful of sweeps; the cap
// bounds the engine even against adversarial (fuzzed) inputs.
const maxVFSweeps = 32

// valueFlowInfo is the solved value-flow context of one Program.
type valueFlowInfo struct {
	prog      *Program
	dirs      *vfDirectives
	ctxs      map[*FuncNode]*vfCtx
	summaries map[*FuncNode]*valueSummary
	findings  map[*FuncNode][]vfFinding
	declMemo  map[*FuncNode][]string
}

// valueFlow builds (once) and returns the program's value-flow context.
func (p *Program) valueFlow() *valueFlowInfo {
	if p.vflow != nil {
		return p.vflow
	}
	vf := &valueFlowInfo{
		prog:      p,
		summaries: make(map[*FuncNode]*valueSummary),
		findings:  make(map[*FuncNode][]vfFinding),
		ctxs:      make(map[*FuncNode]*vfCtx),
		declMemo:  make(map[*FuncNode][]string),
	}
	vf.dirs = collectVFDirectives(p)
	for _, n := range p.graph.nodes {
		vf.summaries[n] = &valueSummary{
			paramSink:   make([]string, len(n.Params)),
			paramSinkTr: make([]*Trace, len(n.Params)),
		}
	}
	for _, n := range p.graph.nodes {
		vf.ctxs[n] = buildVFCtx(vf, n)
	}
	vf.solve()
	for _, n := range p.graph.nodes {
		vf.check(n)
	}
	p.vflow = vf
	return vf
}

// valueFindings returns the engine findings of one kind for one package,
// in deterministic (node, source) order.
func (p *Program) valueFindings(pkg *Package, kind vfKind) []vfFinding {
	vf := p.valueFlow()
	var out []vfFinding
	for _, f := range vf.dirs.pkgFind[pkg] {
		if f.kind == kind {
			out = append(out, f)
		}
	}
	for _, n := range p.NodesOf(pkg) {
		for _, f := range vf.findings[n] {
			if f.kind == kind {
				out = append(out, f)
			}
		}
	}
	return out
}

// declaredOf resolves a node's effective //rexlint:stream declaration;
// literals inherit the lexically enclosing declared function's set.
func (vf *valueFlowInfo) declaredOf(n *FuncNode) []string {
	if d, ok := vf.declMemo[n]; ok {
		return d
	}
	d := vf.dirs.declared[n]
	if d == nil && n.Enclosing != nil {
		d = vf.declaredOf(n.Enclosing)
	}
	vf.declMemo[n] = d
	return d
}

// solve runs delta-mode local passes to a fixpoint with a caller-driven
// worklist: every node is analyzed once, and a node is re-analyzed only
// when one of its callees' summaries grew. Merges are monotone over finite
// lattices, so each node re-enters the list a bounded number of times;
// maxVFSweeps bounds the per-node revisits as a backstop, not a budget.
func (vf *valueFlowInfo) solve() {
	nodes := vf.prog.graph.nodes
	callers := make(map[*FuncNode][]*FuncNode)
	for _, n := range nodes {
		for i := range n.Calls {
			for _, callee := range n.Calls[i].Callees {
				callers[callee] = append(callers[callee], n)
			}
		}
	}
	work := make([]*FuncNode, len(nodes))
	copy(work, nodes)
	queued := make(map[*FuncNode]bool, len(nodes))
	rounds := make(map[*FuncNode]int, len(nodes))
	for _, n := range nodes {
		queued[n] = true
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		queued[n] = false
		if rounds[n] >= maxVFSweeps {
			continue
		}
		rounds[n]++
		if !vf.update(n) {
			continue
		}
		for _, caller := range callers[n] {
			if !queued[caller] {
				queued[caller] = true
				work = append(work, caller)
			}
		}
	}
}

// update recomputes one node's summary from the current callee summaries
// and merges it in; reports whether anything grew.
func (vf *valueFlowInfo) update(n *FuncNode) bool {
	ctx := vf.ctxs[n]
	return mergeValueSummary(vf.summaries[n], vf.extractSummary(ctx, &vfFlow{vf: vf, ctx: ctx, mode: vfDelta}))
}

// extractSummary solves one delta-mode pass and reads the node's summary
// facts out of it: return taints, parameter-to-sink flows, and the net
// counter deltas at function exit.
func (vf *valueFlowInfo) extractSummary(ctx *vfCtx, fl *vfFlow) *valueSummary {
	n := ctx.n
	sum := &valueSummary{
		paramSink:   make([]string, len(n.Params)),
		paramSinkTr: make([]*Trace, len(n.Params)),
	}
	facts := replay[*vfState](ctx.cfg, fl, func(node ast.Node, st *vfState) {
		if ret, ok := node.(*ast.ReturnStmt); ok {
			vf.recordReturn(ctx, fl, ret, st, sum)
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
				desc, _ := vf.sinkDescAt(ctx, call, i)
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
	if len(ctx.recvFields) > 0 {
		if exitIn, ok := facts.In[ctx.cfg.Exit]; ok {
			req := vf.dirs.requires[n]
			for _, f := range ctx.recvFields {
				key := ctx.recvKey + "." + f
				ce := &counterEffect{
					Req:   req[f],
					Known: !exitIn.cKill[key],
					Delta: exitIn.getLB(key),
				}
				if ce.Known && ce.Delta == 0 && ce.Req == 0 {
					continue // no caller-visible effect
				}
				if sum.counters == nil {
					sum.counters = make(map[string]*counterEffect)
				}
				sum.counters[f] = ce
			}
		}
	}
	return sum
}

// recordReturn folds the taint of each returned value into the summary.
func (vf *valueFlowInfo) recordReturn(ctx *vfCtx, fl *vfFlow, ret *ast.ReturnStmt, st *vfState, sum *valueSummary) {
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
	for _, obj := range namedResultObjs(ctx.n) {
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
func (vf *valueFlowInfo) sinkDescAt(ctx *vfCtx, call *ast.CallExpr, argIdx int) (string, *Trace) {
	site := ctx.siteOf[call]
	if site == nil {
		return "", nil
	}
	for _, callee := range site.Callees {
		if vf.dirs.canonical[callee] || vf.dirs.sources[callee] {
			continue
		}
		if desc, ok := vf.dirs.sinks[callee]; ok {
			d := fmt.Sprintf("%s sink %s", desc, callee.Name())
			return d, &Trace{Pos: call.Pos(), What: d, EntryPos: call.Pos()}
		}
		sum := vf.summaries[callee]
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

// check runs the absolute-mode reporting pass over one node and stores its
// findings.
func (vf *valueFlowInfo) check(n *FuncNode) {
	ctx := vf.ctxs[n]
	fl := &vfFlow{vf: vf, ctx: ctx, mode: vfAbs}
	var finds []vfFinding
	report := func(kind vfKind, pos token.Pos, format string, args ...any) {
		finds = append(finds, vfFinding{kind: kind, pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	replay[*vfState](ctx.cfg, fl, func(node ast.Node, st *vfState) {
		vf.checkNode(ctx, fl, node, st, report)
	})
	vf.findings[n] = finds
}

// checkNode applies every diagnostic rule to one straight-line node with
// its pre-state.
func (vf *valueFlowInfo) checkNode(ctx *vfCtx, fl *vfFlow, node ast.Node, st *vfState, report func(vfKind, token.Pos, string, ...any)) {
	switch s := node.(type) {
	case *ast.IncDecStmt:
		if key, ok := ctx.counterKeyOf(vf, s.X); ok && s.Tok == token.DEC && st.getLB(key) <= 0 {
			report(vfNonneg, s.Pos(), "%s may go negative: decrement of //rexlint:nonneg counter at proven lower bound %d",
				renderPath(s.X), st.getLB(key))
		}
	case *ast.AssignStmt:
		vf.checkCounterAssign(ctx, s, st, report)
	}
	inspectHeader(node, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			vf.checkCall(ctx, fl, call, st, report)
		}
		return true
	})
}

// checkCounterAssign reports counter assignments that cannot keep the
// non-negativity invariant.
func (vf *valueFlowInfo) checkCounterAssign(ctx *vfCtx, s *ast.AssignStmt, st *vfState, report func(vfKind, token.Pos, string, ...any)) {
	info := ctx.n.Pkg.Info
	for i, lhs := range s.Lhs {
		key, ok := ctx.counterKeyOf(vf, lhs)
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
func (vf *valueFlowInfo) checkCall(ctx *vfCtx, fl *vfFlow, call *ast.CallExpr, st *vfState, report func(vfKind, token.Pos, string, ...any)) {
	info := ctx.n.Pkg.Info
	site := ctx.siteOf[call]
	if site == nil {
		return
	}
	n := ctx.n

	// Rule 1: streamsource calls — constant name, declared ownership.
	isSource := false
	for _, callee := range site.Callees {
		if !vf.dirs.sources[callee] {
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
		if okName && !slices.Contains(ctx.declared, name) {
			report(vfStream, call.Pos(), "%s draws from RNG stream %q but declares %s; add //rexlint:stream %s to its doc comment",
				n.Name(), name, declList(ctx.declared), name)
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
				if !slices.Contains(ctx.declared, name) {
					report(vfStream, call.Pos(), "%s draws from RNG stream %q but declares %s%s; add //rexlint:stream %s to its doc comment",
						n.Name(), name, declList(ctx.declared), str[name].Chain(), name)
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
						if !slices.Contains(vf.declaredOf(callee), name) {
							report(vfStream, arg.Pos(), "%s passes RNG stream %q to %s, which does not declare it (//rexlint:stream)%s",
								n.Name(), name, callee.Name(), tr.Chain())
						}
					}
				} else if !slices.Contains(ctx.declared, name) {
					report(vfStream, arg.Pos(), "%s passes RNG stream %q to %s but declares %s%s; add //rexlint:stream %s to its doc comment",
						n.Name(), name, calleeLabel(site), declList(ctx.declared), tr.Chain(), name)
				}
			}
		}
		if ord != nil {
			if desc, _ := vf.sinkDescAt(ctx, call, i); desc != "" {
				report(vfDet, arg.Pos(), "value ordered by %s flows into %s without sort or canonicalization%s",
					ord.What, desc, ord.Chain())
			}
		}
	}

	// Rule 6: sinks invoked inside map iteration emit in nondeterministic
	// order even with clean arguments.
	if ctx.inMapRange(call.Pos()) {
		for _, callee := range site.Callees {
			if desc, ok := vf.dirs.sinks[callee]; ok {
				report(vfDet, call.Pos(), "%s sink %s called inside map iteration: emission order is nondeterministic",
					desc, callee.Name())
			}
		}
	}

	// Rule 7: callee entry preconditions (//rexlint:requires).
	if site.RecvExpr != nil {
		if recvKey, ok := exprKey(info, site.RecvExpr); ok {
			for _, callee := range site.Callees {
				sum := vf.summaries[callee]
				for _, f := range sortedKeys(sum.counters) {
					ce := sum.counters[f]
					if ce.Req <= 0 {
						continue
					}
					if lb := st.getLB(recvKey + "." + f); lb < ce.Req {
						report(vfNonneg, call.Pos(), "call to %s requires %s >= %d (//rexlint:requires); caller's proven lower bound is %d",
							callee.Name(), f, ce.Req, lb)
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
