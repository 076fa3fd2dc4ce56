package lint

// ShareCheck is the machine-checked isolation contract the partitioned
// parallel solver is built against: values of a type declared
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
//
// The escape sites are the summary's site table (summary.go) and the
// function's effective call sites, so code that is unreachable or sits
// under a constant debug guard is not checked.
import (
	"go/ast"
	"go/token"
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

// checkShareNode reports one function's owned-value escapes: its site-table
// entries (summary.go) and its call sites whose callee lets an argument
// escape.
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
	report := func(pos token.Pos, name, how string) {
		if transfers.covers("", pass.Fset.Position(pos)) {
			return
		}
		pass.Reportf(pos, "owned %s value %s; annotate the hand-off with //rexlint:transfer <reason> or clone first", name, how)
	}

	for _, st := range prog.local[node].sites {
		if st.value == nil || st.kind >= siteGlobal && freshValue(st.value) {
			continue // a receive, or a store of a value made in place
		}
		name := ownedName(st.value)
		if name == "" {
			continue
		}
		how := st.how
		if st.kind == siteOwner {
			how += ", creating a second owner"
		}
		report(st.pos, name, how)
	}
	for _, cs := range prog.EffectiveCalls(node) {
		if cs.Call != nil {
			checkShareCall(pass, &cs, ownedName, report)
		}
	}
}

// freshValue reports whether e creates a new value in place (call result or
// composite literal): storing it is first ownership, not a second owner.
func freshValue(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr, *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, isLit := ast.Unparen(x.X).(*ast.CompositeLit)
			return isLit
		}
	}
	return false
}

// checkShareCall flags owned arguments passed to escaping parameters.
func checkShareCall(pass *Pass, site *CallSite, ownedName func(ast.Expr) string, report func(token.Pos, string, string)) {
	call := site.Call
	if len(site.Callees) == 0 {
		// Stdlib or unresolved: passing an owned value out of the module
		// is conservatively an escape (the callee may retain it).
		if mayRetain(site) {
			for _, arg := range call.Args {
				if name := ownedName(arg); name != "" && !freshValue(arg) {
					report(arg.Pos(), name, "passed to an unresolvable callee that may retain it")
				}
			}
		}
		return
	}
	for _, arg := range call.Args {
		name := ownedName(arg)
		if name == "" || freshValue(arg) {
			continue
		}
		for _, callee := range site.Callees {
			if callee.TransferSink {
				continue // declared hand-off: callee takes ownership
			}
			cs := pass.Prog.SummaryOf(callee)
			idx := argParamIndex(callee, call, arg)
			if idx >= 0 && idx < len(cs.ParamEscape) && cs.ParamEscape[idx] != "" {
				report(arg.Pos(), name, cs.ParamEscape[idx]+" by "+callee.Name())
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

// mayRetain reports whether a call with no module-local callee might
// retain its arguments: an unresolvable call does, and so does every
// stdlib callee bar the effect-free entries of the table, such as math.
func mayRetain(site *CallSite) bool {
	retains := site.Unknown
	for _, name := range site.Std {
		sc := stdCallOf(name)
		retains = retains || sc.mask != 0 || sc.sorts
	}
	return retains
}
