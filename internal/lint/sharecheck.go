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
// or a captured variable), or passed to a module callee whose own sites
// let that parameter escape (read one hop deep) — unless a
// `//rexlint:transfer <reason>` on or above the escape site sanctions the
// hand-off.
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

	for _, st := range prog.SummaryOf(node).sites {
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

// checkShareCall flags owned arguments passed to a parameter the module
// callee lets escape, read one hop deep from its summary, or passed out of
// the module to a call that may retain them.
func checkShareCall(pass *Pass, site *CallSite, ownedName func(ast.Expr) string, report func(token.Pos, string, string)) {
	callee := site.Callee
	if callee == nil && !mayRetain(site) {
		return
	}
	for i, arg := range site.Call.Args {
		name := ownedName(arg)
		if name == "" || freshValue(arg) {
			continue
		}
		if callee == nil {
			report(arg.Pos(), name, "passed to an unresolvable callee that may retain it")
			continue
		}
		esc := pass.Prog.SummaryOf(callee).ParamEscape
		if j := min(i, len(esc)-1); j >= 0 && esc[j] != "" { // a variadic tail maps to the last parameter
			report(arg.Pos(), name, esc[j]+" by "+callee.Name())
		}
	}
}

// mayRetain reports whether a call with no module-local callee might
// retain its arguments: an unresolvable call does, and so does every
// stdlib callee bar the effect-free entries of the table, such as math.
func mayRetain(site *CallSite) bool {
	return site.Unknown || site.std().mask != 0
}
