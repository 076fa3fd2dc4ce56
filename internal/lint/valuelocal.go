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
	"slices"
	"sort"
	"strconv"
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
	// nonneg are the //rexlint:nonneg-annotated integer struct fields.
	nonneg map[*types.Var]bool
	// requires maps functions to their //rexlint:requires field>=k entry
	// preconditions.
	requires map[*FuncNode]map[string]int
	// pkgFind collects directive-validation findings (malformed requires,
	// nonneg on a non-integer field) per package.
	pkgFind map[*Package][]vfFinding
}

// collectVFDirectives parses every value-flow directive in the program.
func collectVFDirectives(p *Program) *vfDirectives {
	d := &vfDirectives{
		sources:  make(map[*FuncNode]bool),
		declared: make(map[*FuncNode][]string),
		sinks:    make(map[*FuncNode]string),
		nonneg:   make(map[*types.Var]bool),
		requires: make(map[*FuncNode]map[string]int),
		pkgFind:  make(map[*Package][]vfFinding),
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
		for _, fields := range funcDirective(n.Decl, "requires") {
			for _, f := range fields {
				name, k, ok := parseRequires(f)
				if !ok {
					d.pkgFind[n.Pkg] = append(d.pkgFind[n.Pkg], vfFinding{
						kind: vfNonneg, pos: n.Decl.Pos(),
						msg: fmt.Sprintf("malformed //rexlint:requires clause %q: want field>=k", f),
					})
					continue
				}
				if d.requires[n] == nil {
					d.requires[n] = make(map[string]int)
				}
				d.requires[n][name] = k
			}
		}
	}
	for _, pkg := range p.Pkgs {
		collectNonnegFields(pkg, d)
	}
	return d
}

// parseRequires parses one "field>=k" clause.
func parseRequires(s string) (field string, k int, ok bool) {
	name, num, found := strings.Cut(s, ">=")
	if !found || name == "" {
		return "", 0, false
	}
	v, err := strconv.Atoi(num)
	if err != nil || v < 0 {
		return "", 0, false
	}
	return name, v, true
}

// collectNonnegFields scans struct declarations for //rexlint:nonneg field
// annotations (doc comment above the field or line comment beside it).
func collectNonnegFields(pkg *Package, d *vfDirectives) {
	hasDirective := func(cg *ast.CommentGroup) bool { return len(groupDirective(cg, "nonneg")) > 0 }
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				if !hasDirective(field.Doc) && !hasDirective(field.Comment) {
					continue
				}
				for _, name := range field.Names {
					obj, _ := pkg.Info.Defs[name].(*types.Var)
					if obj == nil {
						continue
					}
					if basic, isBasic := obj.Type().Underlying().(*types.Basic); !isBasic || basic.Info()&types.IsInteger == 0 {
						d.pkgFind[pkg] = append(d.pkgFind[pkg], vfFinding{
							kind: vfNonneg, pos: name.Pos(),
							msg: fmt.Sprintf("//rexlint:nonneg on non-integer field %s (%s)", name.Name, obj.Type()),
						})
						continue
					}
					d.nonneg[obj] = true
				}
			}
			return true
		})
	}
}

// scanFlow is the value-flow part of one node's local stage: the effective
// stream declaration, the receiver's annotated counter fields, derived
// counter copies, multi-arm select receives and map-range spans.
func scanFlow(p *Program, n *FuncNode, lf *localFacts) {
	info := n.Pkg.Info
	for m := n; m != nil && lf.declared == nil; m = m.Enclosing {
		lf.declared = p.dirs.declared[m]
	}
	lf.derived = make(map[types.Object]bool)
	lf.selectOrdered = make(map[ast.Node]bool)
	if n.Recv != nil {
		lf.recvKey = objKey(n.Recv)
		if st := derefStruct(n.Recv.Type()); st != nil {
			for i := 0; i < st.NumFields(); i++ {
				if p.dirs.nonneg[st.Field(i)] {
					lf.recvFields = append(lf.recvFields, st.Field(i).Name())
				}
			}
			sort.Strings(lf.recvFields)
		}
	}
	inspectShallow(n.Body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if sel, ok := ast.Unparen(s.Rhs[i]).(*ast.SelectorExpr); ok {
					if fv, _ := info.Uses[sel.Sel].(*types.Var); fv != nil && p.dirs.nonneg[fv] {
						if obj := info.Defs[id]; obj != nil {
							lf.derived[obj] = true
						}
					}
				}
			}
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

// counterKeyOf canonicalizes an expression that denotes a tracked counter:
// a path ending in a //rexlint:nonneg field, or a derived local copy.
func (fl *vfFlow) counterKeyOf(e ast.Expr) (string, bool) {
	info := fl.n.Pkg.Info
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj != nil && fl.lf.derived[obj] {
			return objKey(obj), true
		}
	case *ast.SelectorExpr:
		if fv, _ := info.Uses[x.Sel].(*types.Var); fv != nil && fl.p.dirs.nonneg[fv] {
			return exprKey(info, e)
		}
	}
	return "", false
}

func (fl *vfFlow) Entry() *vfState {
	st := newVFState()
	n := fl.n
	for _, f := range fl.lf.recvFields {
		if k := fl.p.dirs.requires[n][f]; k > 0 {
			st.setLB(fl.lf.recvKey+"."+f, min(k, lbSat))
		}
	}
	for i, pobj := range n.Params {
		if pobj == nil {
			continue
		}
		key := objKey(pobj)
		if i < 64 {
			st.setPmark(key, 1<<uint(i))
		}
		if len(fl.lf.declared) > 0 && isRandPointer(pobj.Type()) {
			set := make(streamSet, len(fl.lf.declared))
			for _, name := range fl.lf.declared {
				set[name] = &Trace{Pos: n.Pos(), What: fmt.Sprintf("*rand.Rand parameter of //rexlint:stream %s function", name), EntryPos: n.Pos()}
			}
			st.setStreams(key, set)
		}
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
// effects first (sanitizers, callee writes), then the statement's own
// assignment/taint semantics.
func (fl *vfFlow) apply(n ast.Node, st *vfState) {
	fl.callEffects(n, st)
	switch s := n.(type) {
	case *ast.AssignStmt:
		fl.assign(s, st)
	case *ast.IncDecStmt:
		if key, ok := fl.counterKeyOf(s.X); ok {
			if s.Tok == token.INC {
				st.setLB(key, satAdd(st.getLB(key), 1))
			} else {
				fl.lowerLB(st, key, 1)
			}
		}
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
					str, ord, marks := fl.taintOf(vs.Values[i], st)
					fl.writeTaint(st, name, str, ord, marks, true)
				}
			}
		}
	case *ast.RangeStmt:
		fl.rangeTaint(s, st)
	}
}

// lowerLB applies a decrement of c: the bound clamps at the invariant
// floor 0 (the checker reports the dip separately).
func (fl *vfFlow) lowerLB(st *vfState, key string, c int) {
	st.setLB(key, max(st.getLB(key)-c, 0))
}

func (fl *vfFlow) assign(s *ast.AssignStmt, st *vfState) {
	info := fl.n.Pkg.Info
	tuple := len(s.Lhs) != len(s.Rhs)
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if tuple {
			rhs = s.Rhs[0]
		} else {
			rhs = s.Rhs[i]
		}
		// Counter semantics.
		if key, ok := fl.counterKeyOf(lhs); ok {
			switch s.Tok {
			case token.ADD_ASSIGN:
				if c, isConst := constIntOf(info, rhs); isConst {
					if c >= 0 {
						st.setLB(key, satAdd(st.getLB(key), c))
					} else {
						fl.lowerLB(st, key, -c)
					}
				} else {
					st.setLB(key, 0)
				}
			case token.SUB_ASSIGN:
				if c, isConst := constIntOf(info, rhs); isConst && c >= 0 {
					fl.lowerLB(st, key, c)
				} else {
					st.setLB(key, 0)
				}
			case token.ASSIGN, token.DEFINE:
				if c, isConst := constIntOf(info, rhs); isConst {
					st.setLB(key, min(max(c, 0), lbSat)) // checker reports a negative constant
				} else if rk, rok := fl.counterKeyOf(rhs); rok {
					st.setLB(key, st.getLB(rk))
				} else {
					st.setLB(key, 0)
				}
			}
		}
		// Taint semantics.
		if s.Tok == token.DEFINE || s.Tok == token.ASSIGN {
			str, ord, marks := fl.taintOf(rhs, st)
			if fl.lf.selectOrdered[s] && ord == nil {
				ord = &Trace{Pos: s.Pos(), What: "select arm completion order", EntryPos: s.Pos()}
			}
			fl.writeTaint(st, lhs, str, ord, marks, true)
		} else {
			str, ord, marks := fl.taintOf(rhs, st)
			fl.writeTaint(st, lhs, str, ord, marks, false)
		}
	}
}

// writeTaint updates the taint of an assignment target. Path targets get a
// strong update (descendant keys die with them) unless join is forced;
// index/deref targets join into their base path. A write into a map
// element absorbs order taint: the destination has no order to perturb, so
// copying a range's pairs into another map is order-insensitive.
func (fl *vfFlow) writeTaint(st *vfState, lhs ast.Expr, str streamSet, ord *Trace, marks uint64, strong bool) {
	info := fl.n.Pkg.Info
	target := ast.Unparen(lhs)
	for {
		if ix, ok := target.(*ast.IndexExpr); ok {
			if t := info.TypeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					ord = nil
					marks = 0
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
		for k := range st.streams {
			if k == key || strings.HasPrefix(k, key+".") {
				delete(st.streams, k)
			}
		}
		for k := range st.ordered {
			if k == key || strings.HasPrefix(k, key+".") {
				delete(st.ordered, k)
			}
		}
		for k := range st.pmark {
			if k == key || strings.HasPrefix(k, key+".") {
				delete(st.pmark, k)
			}
		}
		st.setStreams(key, str)
		st.setOrdered(key, ord)
		st.setPmark(key, marks)
		return
	}
	if len(str) > 0 {
		cur := st.streams[key]
		if cur == nil {
			cur = make(streamSet)
		}
		for n, tr := range str {
			if _, dup := cur[n]; !dup {
				cur[n] = tr
			}
		}
		st.setStreams(key, cur)
	}
	if ord != nil && st.ordered[key] == nil {
		st.setOrdered(key, ord)
	}
	if marks != 0 {
		st.setPmark(key, st.pmark[key]|marks)
	}
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
			fl.writeTaint(st, v, nil, tr, 0, true)
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
	str, ord, marks := fl.taintOf(s.X, st)
	fl.writeTaint(st, s.Value, str, ord, marks, true)
}

// callEffects applies the state changes of every call inside the node:
// sort sanitization, builtin copy propagation, and callee writes.
func (fl *vfFlow) callEffects(n ast.Node, st *vfState) {
	info := fl.n.Pkg.Info
	writes := func(c *FuncNode) bool {
		return fl.p.summaries[c].Mask&(EffMutatesRecv|EffMutatesParam|EffGlobal|EffUnknown) != 0
	}
	inspectShallow(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltinCall(info, call, "copy") && len(call.Args) == 2 {
			str, ord, marks := fl.taintOf(call.Args[1], st)
			fl.writeTaint(st, call.Args[0], str, ord, marks, false)
			return true
		}
		site := fl.p.SiteAt(call)
		if site.std().order == orderSanitize {
			for _, arg := range call.Args {
				key, ok := exprKey(info, unwrapConversion(info, arg))
				if !ok {
					continue
				}
				for k := range st.ordered {
					if k == key || strings.HasPrefix(k, key+".") {
						delete(st.ordered, k)
					}
				}
			}
			return true
		}
		if site == nil {
			return true
		}
		if site.Unknown || slices.ContainsFunc(site.Callees, writes) {
			// The callee may write any field-rooted counter; the declared
			// invariant floor is all that survives. Derived locals are the
			// caller's own and keep their bounds.
			for k := range st.lb {
				if strings.Contains(k, ".") {
					delete(st.lb, k)
				}
			}
		}
		return true
	})
}

// Refine exploits branch conditions on counters: `if q.n > 0 { q.n-- }`
// proves the decrement.
func (fl *vfFlow) Refine(e Edge, f *vfState) *vfState {
	if e.Cond == nil {
		return f
	}
	cmp, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok {
		return f
	}
	info := fl.n.Pkg.Info
	key, okKey := fl.counterKeyOf(cmp.X)
	c, okC := constIntOf(info, cmp.Y)
	op := cmp.Op
	if !okKey || !okC {
		// Mirror c OP key.
		key, okKey = fl.counterKeyOf(cmp.Y)
		c, okC = constIntOf(info, cmp.X)
		if !okKey || !okC {
			return f
		}
		switch op {
		case token.GTR:
			op = token.LSS
		case token.GEQ:
			op = token.LEQ
		case token.LSS:
			op = token.GTR
		case token.LEQ:
			op = token.GEQ
		}
	}
	if e.Neg {
		switch op {
		case token.GTR:
			op = token.LEQ
		case token.GEQ:
			op = token.LSS
		case token.LSS:
			op = token.GEQ
		case token.LEQ:
			op = token.GTR
		case token.EQL:
			op = token.NEQ
		case token.NEQ:
			op = token.EQL
		}
	}
	lb := f.getLB(key)
	derived := lb
	switch op {
	case token.GTR:
		derived = c + 1
	case token.GEQ:
		derived = c
	case token.EQL:
		derived = c
	case token.NEQ:
		if lb == c {
			derived = c + 1
		}
	}
	if derived <= lb {
		return f
	}
	out := f.clone()
	out.setLB(key, min(derived, lbSat))
	return out
}

// taintOf evaluates the taint of an expression under the current state:
// stream taints, order taint, and parameter marks.
func (fl *vfFlow) taintOf(e ast.Expr, st *vfState) (streamSet, *Trace, uint64) {
	info := fl.n.Pkg.Info
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if key, ok := exprKey(info, e); ok {
			return st.taintsAt(key)
		}
		return nil, nil, 0
	case *ast.StarExpr:
		return fl.taintOf(x.X, st)
	case *ast.UnaryExpr:
		return fl.taintOf(x.X, st)
	case *ast.BinaryExpr:
		return unionTaint3(fl.taintOf(x.X, st))(fl.taintOf(x.Y, st))
	case *ast.IndexExpr:
		return unionTaint3(fl.taintOf(x.X, st))(fl.taintOf(x.Index, st))
	case *ast.SliceExpr:
		return fl.taintOf(x.X, st)
	case *ast.TypeAssertExpr:
		return fl.taintOf(x.X, st)
	case *ast.CompositeLit:
		var str streamSet
		var ord *Trace
		var marks uint64
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			str, ord, marks = unionTaint3(str, ord, marks)(fl.taintOf(elt, st))
		}
		return str, ord, marks
	case *ast.CallExpr:
		return fl.callTaint(x, st)
	}
	return nil, nil, 0
}

// unionTaint3 curries a three-way taint union.
func unionTaint3(str streamSet, ord *Trace, marks uint64) func(streamSet, *Trace, uint64) (streamSet, *Trace, uint64) {
	return func(s2 streamSet, o2 *Trace, m2 uint64) (streamSet, *Trace, uint64) {
		if len(s2) > 0 {
			if str == nil {
				str = make(streamSet, len(s2))
			}
			for n, tr := range s2 {
				if _, ok := str[n]; !ok {
					str[n] = tr
				}
			}
		}
		if ord == nil {
			ord = o2
		}
		return str, ord, marks | m2
	}
}

// callTaint evaluates the taint of a call result.
func (fl *vfFlow) callTaint(call *ast.CallExpr, st *vfState) (streamSet, *Trace, uint64) {
	info := fl.n.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return fl.taintOf(call.Args[0], st) // conversion T(x)
	}
	if isBuiltinCall(info, call, "append") {
		var str streamSet
		var ord *Trace
		var marks uint64
		for _, arg := range call.Args {
			str, ord, marks = unionTaint3(str, ord, marks)(fl.taintOf(arg, st))
		}
		return str, ord, marks
	}
	if isBuiltinCall(info, call, "len") || isBuiltinCall(info, call, "cap") {
		return nil, nil, 0
	}
	site := fl.p.SiteAt(call)
	if site == nil || len(site.Callees) == 0 {
		switch site.std().order {
		case orderSource:
			return nil, &Trace{Pos: call.Pos(), What: site.Std[0] + " iteration order", EntryPos: call.Pos()}, 0
		case orderKeep:
			// Formatting propagates ordering (and param marks), not
			// stream identity.
			var ord *Trace
			var marks uint64
			for _, arg := range call.Args {
				_, o, m := fl.taintOf(arg, st)
				if ord == nil {
					ord = o
				}
				marks |= m
			}
			return nil, ord, marks
		}
		return nil, nil, 0
	}
	var str streamSet
	var ord *Trace
	var marks uint64
	for _, callee := range site.Callees {
		if fl.p.dirs.sources[callee] {
			if name, ok := streamNameArg(info, call); ok {
				if str == nil {
					str = make(streamSet)
				}
				if _, dup := str[name]; !dup {
					str[name] = &Trace{Pos: call.Pos(), What: fmt.Sprintf("Stream(%q)", name), EntryPos: call.Pos()}
				}
			}
			continue
		}
		sum := fl.p.summaries[callee].flow
		for name, tr := range sum.returnStreams {
			if str == nil {
				str = make(streamSet)
			}
			if _, dup := str[name]; !dup {
				str[name] = wrapVia(tr, callee.Name(), call.Pos())
			}
		}
		if ord == nil && sum.returnsOrdered != nil {
			ord = wrapVia(sum.returnsOrdered, callee.Name(), call.Pos())
		}
		if sum.returnsParam != 0 {
			for i, arg := range call.Args {
				bit := min(i, 63)
				if i >= 64 || sum.returnsParam&(1<<uint(bit)) == 0 {
					continue
				}
				str, ord, marks = unionTaint3(str, ord, marks)(fl.taintOf(arg, st))
			}
		}
	}
	return str, ord, marks
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

func constIntOf(info *types.Info, e ast.Expr) (int, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	if !exact {
		return 0, false
	}
	return int(v), true
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
