package lint

import (
	"go/ast"
	"go/types"
)

// ClockPurity keeps deterministic packages off the wall clock. Direct
// calls to the ambient time sources, the stdlib table's EffClock entries
// (time.Now, time.Since, time.Sleep, time.After, ...), are flagged unless
// they occur inside a Clock implementation — the single seam through which
// wall time is allowed to enter. The analysis is flow-sensitive: storing a banned function value
// and calling it later is caught at the call site, so
//
//	now := time.Now
//	...
//	t := now() // flagged here
//
// cannot smuggle wall time past a grep. Global math/rand use is policed
// separately by noglobalrand.
//
// A function is exempt when its receiver type or any of its result types
// implements the Clock interface (resolved from the package itself or
// from an imported internal/ctl): WallClock.Now, WallClock.Sleep, and
// constructors like NewWallClock are legitimate wall-time sinks.
var ClockPurity = &Analyzer{
	Name: "clockpurity",
	Doc:  "flag wall-clock access (time.Now/Since/Sleep/...) outside Clock implementations, including via stored function values",
	Run:  runClockPurity,
}

// taintFact maps object keys of locals to the banned time function they
// currently hold ("time.Now", ...). May-analysis: union join.
type taintFact map[string]string

type taintFlow struct {
	info *types.Info
}

func (tf *taintFlow) Entry() taintFact { return taintFact{} }

func (tf *taintFlow) Join(a, b taintFact) taintFact {
	out := taintFact{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

func (tf *taintFlow) Equal(a, b taintFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func (tf *taintFlow) Transfer(n ast.Node, in taintFact) taintFact {
	out := in
	copied := false
	set := func(k, v string) {
		if !copied {
			cp := taintFact{}
			for kk, vv := range out {
				cp[kk] = vv
			}
			out, copied = cp, true
		}
		if v == "" {
			delete(out, k)
		} else {
			out[k] = v
		}
	}
	inspectShallow(n, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			key, okKey := exprKey(tf.info, lhs)
			if !okKey {
				continue
			}
			if src := clockFuncValue(tf.info, as.Rhs[i]); src != "" {
				set(key, src)
			} else if rk, okR := exprKey(tf.info, as.Rhs[i]); okR && out[rk] != "" {
				set(key, out[rk])
			} else {
				if out[key] != "" {
					set(key, "")
				}
			}
		}
		return true
	})
	return out
}

// clockFuncValue reports the qualified name of the function e references
// as a value ("time.Now") when the stdlib table marks it EffClock, or "".
// Calls are handled separately, through their resolved site: this matches
// the bare function value only, which has no site.
func clockFuncValue(info *types.Info, e ast.Expr) string {
	if name := funcNameOf(info, e); name != "" && stdCallOf(name).mask&EffClock != 0 {
		return name
	}
	return ""
}

func runClockPurity(pass *Pass) error {
	for _, node := range pass.Prog.NodesOf(pass.pkg()) {
		// Only the declaration itself is exempt from the local check: a
		// literal nested in a Clock implementation is still held to it
		// (the interprocedural half exempts it as a caller).
		if !node.ClockExempt {
			checkClockPurity(pass, node)
		}
	}
	checkHiddenClockReads(pass)
	return nil
}

// checkHiddenClockReads is the interprocedural half: a call to a
// module-local function whose summary says it reads the wall clock —
// directly or through further callees — is flagged at the call site with
// the chain to the root read. Clock implementations are exempt as callers,
// and waived leaf sites never enter summaries, so a reviewed
// //rexlint:ignore on the root read blesses every caller.
func checkHiddenClockReads(pass *Pass) {
	prog := pass.Prog
	for _, node := range prog.NodesOf(pass.pkg()) {
		if clockExemptNode(node) {
			continue
		}
		for _, site := range prog.EffectiveCalls(node) {
			for _, callee := range site.Callees {
				sum := prog.SummaryOf(callee)
				if sum.Mask&EffClock == 0 {
					continue
				}
				what, at := "a wall-clock read", ""
				if sum.Clock != nil {
					what = sum.Clock.What
					at = " at " + pass.Fset.Position(sum.Clock.Pos).String()
				}
				pass.Reportf(site.Pos, "call of %s hides %s%s%s; inject a ctl.Clock instead",
					callee.Name(), what, at, sum.Clock.Chain())
				break
			}
		}
	}
}

// clockExemptNode extends the FuncDecl exemption to literals nested inside
// exempt declarations.
func clockExemptNode(n *FuncNode) bool {
	for ; n != nil; n = n.Enclosing {
		if n.ClockExempt {
			return true
		}
	}
	return false
}

// findClockInterface resolves the Clock seam interface: a package-local
// interface type named Clock, or failing that, Clock from an imported
// internal/ctl package.
func findClockInterface(pkg *types.Package) *types.Interface {
	lookup := func(p *types.Package) *types.Interface {
		obj := p.Scope().Lookup("Clock")
		if obj == nil {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	if pkg == nil {
		return nil
	}
	if iface := lookup(pkg); iface != nil {
		return iface
	}
	for _, imp := range pkg.Imports() {
		if pathHasSuffix(imp.Path(), "internal/ctl") {
			if iface := lookup(imp); iface != nil {
				return iface
			}
		}
	}
	return nil
}

// pathHasSuffix reports whether path ends with the given slash-separated
// suffix on a path-component boundary.
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	n := len(path) - len(suffix)
	return n > 0 && path[n-1] == '/' && path[n:] == suffix
}

// clockExempt reports whether fd is part of a Clock implementation: its
// receiver or one of its results implements the Clock interface.
func clockExempt(info *types.Info, fd *ast.FuncDecl, iface *types.Interface) bool {
	if iface == nil {
		return false
	}
	implements := func(t types.Type) bool {
		if t == nil {
			return false
		}
		if types.Implements(t, iface) {
			return true
		}
		if _, isPtr := t.(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(t), iface) {
				return true
			}
		}
		return false
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if implements(info.TypeOf(fd.Recv.List[0].Type)) {
			return true
		}
	}
	if fd.Type.Results != nil {
		for _, r := range fd.Type.Results.List {
			if implements(info.TypeOf(r.Type)) {
				return true
			}
		}
	}
	return false
}

// checkClockPurity solves the taint facts over the node's CFG and reports
// banned calls.
func checkClockPurity(pass *Pass, node *FuncNode) {
	replay[taintFact](pass.Prog.CFG(node), &taintFlow{info: pass.TypesInfo}, func(n ast.Node, f taintFact) {
		reportClockCalls(pass, n, f)
	})
}

// reportClockCalls flags direct calls of the table's EffClock functions,
// read off the resolved call site, and stored-value calls of them within
// one straight-line node.
func reportClockCalls(pass *Pass, n ast.Node, f taintFact) {
	info := pass.TypesInfo
	inspectShallow(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := pass.Prog.SiteAt(call).stdWith(EffClock); name != "" {
			pass.Reportf(call.Pos(), "%s bypasses the Clock seam; inject a ctl.Clock instead", name)
			return true
		}
		fun := ast.Unparen(call.Fun)
		if key, ok := exprKey(info, fun); ok {
			if src := f[key]; src != "" {
				pass.Reportf(call.Pos(), "call of %s (holds %s) bypasses the Clock seam; inject a ctl.Clock instead",
					renderPath(fun), src)
			}
		}
		return true
	})
}
