package lint

// Local (per-function) half of the value-flow engine: directive collection,
// the per-node prescan of the summary's local stage, the dataflow transfer
// function over the v2 CFG, and taint evaluation for expressions. The
// Program's one fixpoint (summary.go) drives these bottom-up.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// vfDirectives is the parsed annotation universe of one program.
type vfDirectives struct {
	// sources are //rexlint:streamsource functions: their result carries
	// the stream named by the call's first argument.
	sources map[*FuncNode]bool
	// declared maps functions to their //rexlint:stream declarations
	// (sorted stream names). Literals inherit the enclosing declaration.
	declared map[*FuncNode][]string
	// sinks are //rexlint:detsink functions with their description.
	sinks map[*FuncNode]string
}

// collectVFDirectives parses every value-flow directive in the program.
func collectVFDirectives(p *Program) *vfDirectives {
	d := &vfDirectives{
		sources:  make(map[*FuncNode]bool),
		declared: make(map[*FuncNode][]string),
		sinks:    make(map[*FuncNode]string),
	}
	for _, n := range p.graph.nodes {
		if n.Decl == nil {
			continue
		}
		if len(funcDirective(n.Decl, "streamsource")) > 0 {
			d.sources[n] = true
		}
		if dirs := funcDirective(n.Decl, "stream"); len(dirs) > 0 {
			set := map[string]bool{}
			for _, fields := range dirs {
				for _, f := range fields {
					set[f] = true
				}
			}
			d.declared[n] = sortedKeys(set)
		}
		if dirs := funcDirective(n.Decl, "detsink"); len(dirs) > 0 {
			desc := strings.Join(dirs[0], " ")
			if desc == "" {
				desc = "deterministic output"
			}
			d.sinks[n] = desc
		}
	}
	return d
}

// scanFlow is the value-flow part of one node's local stage: the effective
// stream declaration, multi-arm select receives and map-range spans.
func scanFlow(p *Program, n *FuncNode, lf *localFacts) {
	info := n.Pkg.Info
	for m := n; m != nil && lf.declared == nil; m = m.Enclosing {
		lf.declared = p.dirs.declared[m]
	}
	lf.selectOrdered = make(map[ast.Node]bool)
	inspectShallow(n.Body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.SelectStmt:
			recvs := 0
			var comms []ast.Node
			for _, c := range s.Body.List {
				cc := c.(*ast.CommClause)
				switch comm := cc.Comm.(type) {
				case *ast.AssignStmt:
					if len(comm.Rhs) == 1 && isReceiveExpr(comm.Rhs[0]) {
						recvs++
						comms = append(comms, comm)
					}
				case *ast.ExprStmt:
					if isReceiveExpr(comm.X) {
						recvs++
					}
				}
			}
			if recvs >= 2 {
				for _, c := range comms {
					lf.selectOrdered[c] = true
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(s.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					lf.mapRanges = append(lf.mapRanges, posRange{s.Body.Pos(), s.Body.End()})
				}
			}
		}
		return true
	})
}

func isReceiveExpr(e ast.Expr) bool {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	return ok && u.Op == token.ARROW
}

// vfFlow is the Flow instance of one local pass over one node.
type vfFlow struct {
	p  *Program
	n  *FuncNode
	lf *localFacts
}

func (fl *vfFlow) Entry() *vfState {
	st := newVFState()
	n := fl.n
	for i, pobj := range n.Params {
		if pobj == nil {
			continue
		}
		var t taint
		if i < 64 {
			t.marks = 1 << uint(i)
		}
		if len(fl.lf.declared) > 0 && isRandPointer(pobj.Type()) {
			t.streams = make(map[string]*Trace, len(fl.lf.declared))
			for _, name := range fl.lf.declared {
				t.streams[name] = &Trace{Pos: n.Pos(), What: fmt.Sprintf("*rand.Rand parameter of //rexlint:stream %s function", name), EntryPos: n.Pos()}
			}
		}
		st.setTaint(objKey(pobj), t)
	}
	return st
}

func (fl *vfFlow) Join(a, b *vfState) *vfState { return joinVFState(a, b) }
func (fl *vfFlow) Equal(a, b *vfState) bool    { return equalVFState(a, b) }

func (fl *vfFlow) Transfer(n ast.Node, in *vfState) *vfState {
	st := in.clone()
	fl.apply(n, st)
	return st
}

// apply mutates st with the effects of one straight-line node: call
// effects first (sanitizers, copies), then the statement's own taint
// semantics.
func (fl *vfFlow) apply(n ast.Node, st *vfState) {
	fl.callEffects(n, st)
	switch s := n.(type) {
	case *ast.AssignStmt:
		fl.assign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name == "_" || i >= len(vs.Values) {
						continue
					}
					fl.writeTaint(st, name, fl.taintOf(vs.Values[i], st), true)
				}
			}
		}
	case *ast.RangeStmt:
		fl.rangeTaint(s, st)
	}
}

func (fl *vfFlow) assign(s *ast.AssignStmt, st *vfState) {
	tuple := len(s.Lhs) != len(s.Rhs)
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if tuple {
			rhs = s.Rhs[0]
		} else {
			rhs = s.Rhs[i]
		}
		t := fl.taintOf(rhs, st)
		if fl.lf.selectOrdered[s] && t.ord == nil {
			t.ord = &Trace{Pos: s.Pos(), What: "select arm completion order", EntryPos: s.Pos()}
		}
		fl.writeTaint(st, lhs, t, s.Tok == token.DEFINE || s.Tok == token.ASSIGN)
	}
}

// writeTaint updates the taint of an assignment target. Path targets get a
// strong update (descendant keys die with them) unless join is forced;
// index/deref targets join into their base path. A write into a map
// element absorbs order taint: the destination has no order to perturb, so
// copying a range's pairs into another map is order-insensitive.
func (fl *vfFlow) writeTaint(st *vfState, lhs ast.Expr, t taint, strong bool) {
	info := fl.n.Pkg.Info
	target := ast.Unparen(lhs)
	for {
		if ix, ok := target.(*ast.IndexExpr); ok {
			if typ := info.TypeOf(ix.X); typ != nil {
				if _, isMap := typ.Underlying().(*types.Map); isMap {
					t.ord, t.marks = nil, 0
				}
			}
			target, strong = ix.X, false
			continue
		}
		break
	}
	key, ok := exprKey(info, target)
	if !ok {
		return
	}
	if strong {
		for k := range st.taints {
			if k == key || strings.HasPrefix(k, key+".") {
				delete(st.taints, k)
			}
		}
		st.setTaint(key, t)
		return
	}
	st.setTaint(key, st.taints[key].union(t))
}

func (fl *vfFlow) rangeTaint(s *ast.RangeStmt, st *vfState) {
	info := fl.n.Pkg.Info
	t := info.TypeOf(s.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); isMap {
		tr := &Trace{Pos: s.Pos(), What: "map iteration order", EntryPos: s.Pos()}
		for _, v := range []ast.Expr{s.Key, s.Value} {
			if v == nil {
				continue
			}
			if id, ok := v.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			fl.writeTaint(st, v, taint{ord: tr}, true)
		}
		return
	}
	// Ranging over a slice, array, or channel hands each element to the
	// value variable: elements of a tainted container inherit its taint
	// (the index variable is just an int and stays clean).
	if s.Value == nil {
		return
	}
	if id, ok := s.Value.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	fl.writeTaint(st, s.Value, fl.taintOf(s.X, st), true)
}

// callEffects applies the state changes of every call inside the node:
// sort sanitization and builtin copy propagation.
func (fl *vfFlow) callEffects(n ast.Node, st *vfState) {
	info := fl.n.Pkg.Info
	inspectShallow(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltinCall(info, call, "copy") && len(call.Args) == 2 {
			fl.writeTaint(st, call.Args[0], fl.taintOf(call.Args[1], st), false)
			return true
		}
		if fl.p.SiteAt(call).std().order == orderSanitize {
			for _, arg := range call.Args {
				key, ok := exprKey(info, unwrapConversion(info, arg))
				if !ok {
					continue
				}
				for k, t := range st.taints {
					if k == key || strings.HasPrefix(k, key+".") {
						t.ord = nil
						st.setTaint(k, t)
					}
				}
			}
		}
		return true
	})
}

// taintOf evaluates the taint of an expression under the current state.
func (fl *vfFlow) taintOf(e ast.Expr, st *vfState) taint {
	info := fl.n.Pkg.Info
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if key, ok := exprKey(info, e); ok {
			return st.taintsAt(key)
		}
	case *ast.StarExpr:
		return fl.taintOf(x.X, st)
	case *ast.UnaryExpr:
		return fl.taintOf(x.X, st)
	case *ast.BinaryExpr:
		return fl.taintOf(x.X, st).union(fl.taintOf(x.Y, st))
	case *ast.IndexExpr:
		return fl.taintOf(x.X, st).union(fl.taintOf(x.Index, st))
	case *ast.SliceExpr:
		return fl.taintOf(x.X, st)
	case *ast.TypeAssertExpr:
		return fl.taintOf(x.X, st)
	case *ast.CompositeLit:
		var t taint
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			t = t.union(fl.taintOf(elt, st))
		}
		return t
	case *ast.CallExpr:
		return fl.callTaint(x, st)
	}
	return taint{}
}

// callTaint evaluates the taint of a call result.
func (fl *vfFlow) callTaint(call *ast.CallExpr, st *vfState) taint {
	info := fl.n.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return fl.taintOf(call.Args[0], st) // conversion T(x)
	}
	var t taint
	if isBuiltinCall(info, call, "append") {
		for _, arg := range call.Args {
			t = t.union(fl.taintOf(arg, st))
		}
		return t
	}
	if isBuiltinCall(info, call, "len") || isBuiltinCall(info, call, "cap") {
		return t
	}
	site := fl.p.SiteAt(call)
	if site == nil || len(site.Callees) == 0 {
		switch site.std().order {
		case orderSource:
			t.ord = &Trace{Pos: call.Pos(), What: site.Std[0] + " iteration order", EntryPos: call.Pos()}
		case orderKeep:
			// Formatting propagates ordering (and param marks), not
			// stream identity.
			for _, arg := range call.Args {
				u := fl.taintOf(arg, st)
				t = t.union(taint{ord: u.ord, marks: u.marks})
			}
		}
		return t
	}
	for _, callee := range site.Callees {
		if fl.p.dirs.sources[callee] {
			if name, ok := streamNameArg(info, call); ok {
				tr := &Trace{Pos: call.Pos(), What: fmt.Sprintf("Stream(%q)", name), EntryPos: call.Pos()}
				t = t.union(taint{streams: map[string]*Trace{name: tr}})
			}
			continue
		}
		ret := fl.p.summaries[callee].flow.ret
		var via taint
		if len(ret.streams) > 0 {
			via.streams = make(map[string]*Trace, len(ret.streams))
			for name, tr := range ret.streams {
				via.streams[name] = wrapVia(tr, callee.Name(), call.Pos())
			}
		}
		if ret.ord != nil {
			via.ord = wrapVia(ret.ord, callee.Name(), call.Pos())
		}
		t = t.union(via)
		for i, arg := range call.Args {
			if i < 64 && ret.marks&(1<<uint(i)) != 0 {
				t = t.union(fl.taintOf(arg, st))
			}
		}
	}
	return t
}

// wrapVia extends a trace's blame chain with the callee it flowed through.
func wrapVia(tr *Trace, callee string, callPos token.Pos) *Trace {
	via := make([]string, 0, len(tr.Via)+1)
	via = append(via, callee)
	via = append(via, tr.Via...)
	return &Trace{Pos: tr.Pos, What: tr.What, Via: via, EntryPos: callPos}
}

// streamNameArg resolves the constant stream name of a streamsource call.
func streamNameArg(info *types.Info, call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// unwrapConversion strips a single conversion wrapper (sort.Sort(byName(v))).
func unwrapConversion(info *types.Info, e ast.Expr) ast.Expr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return e
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return call.Args[0]
	}
	return e
}

// isRandPointer reports *math/rand.Rand.
func isRandPointer(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "math/rand" && named.Obj().Name() == "Rand"
}
