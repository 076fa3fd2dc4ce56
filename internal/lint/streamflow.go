package lint

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// StreamFlow checks RNG stream isolation one function at a time on the
// local taint flow (taint.go). A function may draw from or pass along only
// the streams its doc comment declares (//rexlint:stream workload drift);
// literals inherit the enclosing declaration. Streams are minted by the
// //rexlint:streamsource (rng.Partitioned.Stream), whose name argument must
// be a named constant, and by a declared function returning a *rand.Rand
// (des.Sim.Chaos); a declared function's *rand.Rand parameters hold its
// streams. A hand-off to a module callee must be declared by the callee,
// one to any other call by the caller. Callees are read by their
// directives only; TestPolicyCannotPerturbWorkload and
// TestTraceStreamCannotPerturbSiblings hold the contract at run time.
var StreamFlow = &Analyzer{
	Name: "streamflow",
	Doc:  "require functions to declare (//rexlint:stream) every RNG sub-stream they draw from or pass along; stream names must be named constants",
	Run: func(pass *Pass) error {
		for _, n := range pass.Prog.NodesOf(pass.pkg()) {
			checkStreams(pass, n)
		}
		return nil
	},
}

// checkStreams solves one function's stream taint and reports its calls;
// a function with no stream on entry and no call that mints one is skipped.
func checkStreams(pass *Pass, n *FuncNode) {
	var entry taintFact
	for _, p := range n.Params {
		if p != nil && len(n.Streams) > 0 && isRandPointer(p.Type()) {
			entry.set(objKey(p), streamTaint(n.Streams, ""))
		}
	}
	if entry == nil && !slices.ContainsFunc(n.Calls, func(s CallSite) bool { return s.Callee != nil && mintsStream(s.Callee) }) {
		return
	}
	tf := &taintFlow{info: n.Pkg.Info, prog: pass.Prog, entry: entry, source: func(e ast.Expr) taint {
		call, _ := e.(*ast.CallExpr)
		m := calleeWhere(pass.Prog.SiteAt(call), mintsStream)
		if name, ok := streamName(n.Pkg.Info, call); ok && m != nil && m.StreamSource {
			return taint{name: ""}
		} else if m != nil && !m.StreamSource {
			return streamTaint(m.Streams, m.Name())
		}
		return nil
	}}
	undeclared := func(pos token.Pos, verb, name, to, chain string) {
		pass.Reportf(pos, "%s %s RNG stream %q%s but declares %s%s; add //rexlint:stream %s to its doc comment",
			n.Name(), verb, name, to, declList(n.Streams), chain, name)
	}
	isSource := func(c *FuncNode) bool { return c.StreamSource }
	tf.eachCall(n, func(call *ast.CallExpr, f taintFact) {
		site := pass.Prog.SiteAt(call)
		if src := calleeWhere(site, isSource); src != nil {
			name, ok := streamName(n.Pkg.Info, call)
			if !ok {
				pass.Reportf(call.Pos(), "stream name passed to %s must be a named constant, not a dynamic expression", src.Name())
			} else if lit, isLit := ast.Unparen(call.Args[0]).(*ast.BasicLit); isLit && lit.Kind == token.STRING {
				pass.Reportf(lit.Pos(), "stream name %q is a string literal; use the exported stream-name constant", name)
			}
			if ok && !slices.Contains(n.Streams, name) {
				undeclared(call.Pos(), "draws from", name, "", "")
			}
			return // the name argument is not a hand-off
		}
		if site == nil {
			return
		}
		// A draw is a standard-library method called on a stream; one
		// minted by the streamsource right there was reported as minted.
		if recv, _ := ast.Unparen(site.RecvExpr).(*ast.CallExpr); site.RecvExpr != nil && site.Std != "" &&
			calleeWhere(pass.Prog.SiteAt(recv), isSource) == nil {
			t := tf.taintOf(site.RecvExpr, f)
			for _, name := range sortedKeys(t) {
				if !slices.Contains(n.Streams, name) {
					undeclared(call.Pos(), "draws from", name, "", t.chain(name))
				}
			}
		}
		for _, arg := range call.Args {
			t := tf.taintOf(arg, f)
			for _, name := range sortedKeys(t) {
				if callee := site.Callee; callee != nil && !slices.Contains(callee.Streams, name) {
					pass.Reportf(arg.Pos(), "%s passes RNG stream %q to %s, which does not declare it (//rexlint:stream)%s",
						n.Name(), name, callee.Name(), t.chain(name))
				}
				if target := cmp.Or(site.Std, "a dynamic call"); site.Callee == nil && !slices.Contains(n.Streams, name) {
					undeclared(arg.Pos(), "passes", name, " to "+target, t.chain(name))
				}
			}
		}
	})
}

// mintsStream reports whether a call of n yields a stream: n is the
// streamsource, or a declared function that returns a *rand.Rand.
func mintsStream(n *FuncNode) bool {
	if n.StreamSource || n.Decl == nil || len(n.Streams) == 0 {
		return n.StreamSource
	}
	results := n.Fn.Type().(*types.Signature).Results()
	for i := range results.Len() {
		if isRandPointer(results.At(i).Type()) {
			return true
		}
	}
	return false
}

// calleeWhere returns the site's module callee if it satisfies ok, or nil
// (also for a nil site).
func calleeWhere(site *CallSite, ok func(*FuncNode) bool) *FuncNode {
	if site != nil && site.Callee != nil && ok(site.Callee) {
		return site.Callee
	}
	return nil
}

// streamName resolves the constant stream name a call passes first.
func streamName(info *types.Info, call *ast.CallExpr) (string, bool) {
	if call == nil || len(call.Args) == 0 {
		return "", false
	}
	return stringConst(info, call.Args[0])
}

// streamTaint is the taint of a value holding the named streams.
func streamTaint(names []string, via string) taint {
	t := make(taint, len(names))
	for _, name := range names {
		t[name] = via
	}
	return t
}

func declList(declared []string) string {
	if len(declared) == 0 {
		return "no streams"
	}
	quoted := make([]string, len(declared))
	for i, d := range declared {
		quoted[i] = strconv.Quote(d)
	}
	return strings.Join(quoted, ", ")
}

func isRandPointer(t types.Type) bool { return types.TypeString(t, nil) == "*math/rand.Rand" }
