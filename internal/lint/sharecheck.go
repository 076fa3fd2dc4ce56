package lint

// ShareCheck is the machine-checked isolation contract the partitioned
// parallel solver is built against (ROADMAP item 1): values of a type
// declared
//
//	//rexlint:owned
//
// in its type doc have single-owner semantics. Within a function, an
// owned value must not escape its owner — be sent on a channel, captured
// by or passed to a goroutine, stored into package-level state, stored
// into a second owner (a structure rooted at the receiver, a parameter,
// or a captured variable), or passed to a callee whose parameter escape
// summary says it leaks — unless the hand-off is sanctioned:
//
//   - a line-level `//rexlint:transfer <reason>` on or above the escape
//     site, or
//   - the callee is declared `//rexlint:transfer <reason>` in its doc
//     comment (a transfer sink: it takes ownership by contract).
//
// Freshly created values (a call result like Clone(), or a composite
// literal) stored in the same statement do not create a second owner: the
// store is the first owner. Returning an owned value likewise hands it
// back to the caller and is always allowed. Unused line-level transfer
// directives are themselves errors, mirroring unused ignores.
import (
	"go/ast"
	"go/token"
	"go/types"
)

var ShareCheck = &Analyzer{
	Name: "sharecheck",
	Doc:  "forbid //rexlint:owned values from escaping to goroutines, channels, globals, or second owners without //rexlint:transfer",
	Run:  runShareCheck,
}

func runShareCheck(pass *Pass) error {
	prog := pass.Prog
	pkg := pass.pkg()
	transfers := prog.waiversFor(pkg)
	for _, node := range prog.NodesOf(pkg) {
		checkShareNode(pass, node, transfers)
	}
	// Unused transfer directives are appended directly (they carry a
	// resolved position already), mirroring unused-ignore reporting.
	*pass.diags = append(*pass.diags, transfers.unusedTransfers()...)
	return nil
}

// checkShareNode scans one function body for owned-value escapes.
func checkShareNode(pass *Pass, node *FuncNode, transfers *lineDirectives) {
	prog := pass.Prog
	info := pass.TypesInfo

	ownedName := func(e ast.Expr) string {
		t := info.TypeOf(e)
		if t == nil {
			return ""
		}
		return prog.OwnedTypeName(t)
	}
	sanctioned := func(pos ast.Node) bool {
		return transfers.covers("", pass.Fset.Position(pos.Pos()))
	}
	report := func(at ast.Node, name, how string) {
		if sanctioned(at) {
			return
		}
		pass.Reportf(at.Pos(), "owned %s value %s; annotate the hand-off with //rexlint:transfer <reason> or clone first", name, how)
	}

	// fresh reports whether e creates a new value in place (call result or
	// composite literal): storing it is first ownership, not a second owner.
	fresh := func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			return true
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				_, isLit := ast.Unparen(x.X).(*ast.CompositeLit)
				return isLit
			}
		}
		return false
	}

	inspectShallow(node.Body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.SendStmt:
			if name := ownedName(s.Value); name != "" {
				report(s, name, "sent on a channel")
			}
		case *ast.GoStmt:
			for _, arg := range s.Call.Args {
				if name := ownedName(arg); name != "" {
					report(s, name, "passed to a goroutine")
				}
			}
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				reportGoroutineCaptures(pass, lit, s, report)
			}
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if i >= len(s.Rhs) {
					break
				}
				name := ownedName(s.Rhs[i])
				if name == "" || fresh(s.Rhs[i]) {
					continue
				}
				deepStore := false
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					deepStore = true
				}
				class := classifyForNode(node, rootObject(info, lhs))
				if !deepStore && class != rootGlobal {
					continue // local aliasing, not a second owner
				}
				switch class {
				case rootGlobal:
					report(s, name, "stored in package-level state")
				case rootRecv, rootParam, rootCaptured:
					report(s, name, "stored into "+renderPath(lhs)+", creating a second owner")
				}
			}
		case *ast.CallExpr:
			checkShareCall(pass, node, s, ownedName, fresh, report)
		}
		return true
	})
}

// reportGoroutineCaptures flags owned free variables captured by a
// goroutine body.
func reportGoroutineCaptures(pass *Pass, lit *ast.FuncLit, at ast.Node, report func(ast.Node, string, string)) {
	info := pass.TypesInfo
	prog := pass.Prog
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: flagged as a global store elsewhere
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own local/param
		}
		if name := prog.OwnedTypeName(v.Type()); name != "" {
			seen[v] = true
			report(at, name, "captured by a goroutine")
		}
		return true
	})
}

// checkShareCall flags owned arguments passed to escaping parameters and
// owned values appended into non-local containers.
func checkShareCall(pass *Pass, node *FuncNode, call *ast.CallExpr, ownedName func(ast.Expr) string, fresh func(ast.Expr) bool, report func(ast.Node, string, string)) {
	info := pass.TypesInfo
	prog := pass.Prog

	// append(container, owned...) into a non-local container.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			if b.Name() == "append" && len(call.Args) >= 2 {
				if classifyForNode(node, rootObject(info, call.Args[0])) != rootLocal {
					for _, arg := range call.Args[1:] {
						if name := ownedName(arg); name != "" && !fresh(arg) {
							report(arg, name, "appended to "+renderPath(call.Args[0])+", creating a second owner")
						}
					}
				}
			}
			return
		}
	}

	callees := prog.CalleesAt(call)
	if callees == nil {
		// Stdlib or unresolved: passing an owned value out of the module
		// is conservatively an escape (the callee may retain it).
		if unknownRetains(pass, call) {
			for _, arg := range call.Args {
				if name := ownedName(arg); name != "" && !fresh(arg) {
					report(arg, name, "passed to an unresolvable callee that may retain it")
				}
			}
		}
		return
	}
	for _, arg := range call.Args {
		name := ownedName(arg)
		if name == "" || fresh(arg) {
			continue
		}
		for _, callee := range callees {
			if callee.TransferSink {
				continue // declared hand-off: callee takes ownership
			}
			cs := prog.SummaryOf(callee)
			idx := argParamIndex(callee, call, arg)
			if idx >= 0 && idx < len(cs.ParamEscape) && cs.ParamEscape[idx] != "" {
				report(arg, name, cs.ParamEscape[idx]+" by "+callee.Name())
				break
			}
		}
	}
}

// argParamIndex maps a call argument back to the callee's parameter index.
func argParamIndex(callee *FuncNode, call *ast.CallExpr, arg ast.Expr) int {
	for i, a := range call.Args {
		if a == arg {
			if i >= len(callee.Params) && len(callee.Params) > 0 {
				return len(callee.Params) - 1 // variadic tail
			}
			return i
		}
	}
	return -1
}

// unknownRetains reports whether an unresolved call might retain its
// arguments. Builtins and conversions never do; true stdlib calls are
// conservatively assumed to.
func unknownRetains(pass *Pass, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		switch pass.TypesInfo.Uses[f].(type) {
		case *types.Builtin, *types.TypeName:
			return false
		case *types.Func:
			return true
		}
		return true
	case *ast.SelectorExpr:
		if _, isT := pass.TypesInfo.Uses[f.Sel].(*types.TypeName); isT {
			return false
		}
		if fn, ok := pass.TypesInfo.Uses[f.Sel].(*types.Func); ok && fn.Pkg() != nil {
			// Allowlist effect-free stdlib: math etc. never retain.
			mask, sortDriver := stdEffect(qualifiedFuncName(fn))
			if mask == 0 && !sortDriver {
				return false
			}
		}
		return true
	}
	return true
}
