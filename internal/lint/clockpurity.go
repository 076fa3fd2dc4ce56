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
// cannot smuggle wall time past a grep. A call of a module function whose
// own sites read the clock is flagged too, reading the callee one hop deep;
// a read further down is flagged where it happens, since the scope covers
// every module package the deterministic ones import. Global math/rand use
// is policed separately by noglobalrand.
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

func runClockPurity(pass *Pass) error {
	for _, node := range pass.Prog.NodesOf(pass.pkg()) {
		// Only the declaration itself is exempt from the local check: a
		// literal nested in a Clock implementation is still held to it
		// (the callee check exempts it as a caller).
		if !node.ClockExempt {
			checkClockPurity(pass, node)
		}
	}
	checkHiddenClockReads(pass)
	return nil
}

// checkHiddenClockReads reads each module callee one hop deep: a call to
// a function whose own sites read the wall clock is flagged at the call
// site with the callee's read. Clock implementations are exempt as callers,
// and a waived read never enters its function's summary, so a reviewed
// //rexlint:ignore on the read blesses every caller.
func checkHiddenClockReads(pass *Pass) {
	prog := pass.Prog
	for _, node := range prog.NodesOf(pass.pkg()) {
		if clockExemptNode(node) {
			continue
		}
		for _, site := range prog.EffectiveCalls(node) {
			if site.Callee == nil {
				continue
			}
			if c := firstOf(prog.SummaryOf(site.Callee).effects, EffClock); c != nil {
				pass.Reportf(site.Pos, "call of %s hides %s at %s; inject a ctl.Clock instead",
					site.Callee.Name(), c.what, pass.Fset.Position(c.pos))
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

// checkClockPurity flags direct calls of the table's EffClock functions,
// read off the resolved call site, and calls of a stored value that holds
// one, on the local taint flow (taint.go).
func checkClockPurity(pass *Pass, node *FuncNode) {
	// Calls are read off their resolved site; the source is the bare
	// function value, which has none.
	tf := &taintFlow{info: pass.TypesInfo, prog: pass.Prog, source: func(e ast.Expr) taint {
		if name := funcNameOf(pass.TypesInfo, e); name != "" && stdCallOf(name).mask&EffClock != 0 {
			return taint{name: ""}
		}
		return nil
	}}
	tf.eachCall(node, func(call *ast.CallExpr, f taintFact) {
		if name := pass.Prog.SiteAt(call).stdWith(EffClock); name != "" {
			pass.Reportf(call.Pos(), "%s bypasses the Clock seam; inject a ctl.Clock instead", name)
		} else if held := sortedKeys(tf.taintOf(call.Fun, f)); len(held) > 0 {
			pass.Reportf(call.Pos(), "call of %s (holds %s) bypasses the Clock seam; inject a ctl.Clock instead",
				renderPath(ast.Unparen(call.Fun)), held[0])
		}
	})
}
