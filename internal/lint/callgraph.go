package lint

// Module-local call graph over every package of a Program. Nodes are
// function bodies — declared functions, methods, and function literals —
// and edges are the call sites that can reach them:
//
//   - direct calls of package-level functions and methods, and calls of
//     method expressions (T.M(x)), resolve through types.Info (static
//     dispatch);
//   - a function literal is an edge target wherever it appears: invoked
//     directly, passed as a callback, launched with go, or deferred — the
//     caller is charged with its effects either way;
//   - `f := func() {...}; f()` resolves through a local single-assignment
//     binding;
//   - any other call through a function-typed value, and every call
//     through an interface method, is recorded as unknown: no callee is
//     guessed, and the summary layer treats the call pessimistically.
//
// Standard-library callees are not graph nodes; call sites record their
// qualified names, and every reader classifies them from the one stdlib
// table (stdCalls, summary.go). Program.SiteAt maps a call expression to
// its site, so analyzers read the resolution made here rather than redo it
// from selector syntax.

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// FuncNode is one function body in the call graph.
type FuncNode struct {
	// Fn is the declared *types.Func; nil for function literals.
	Fn *types.Func
	// Decl is the declaration; nil for function literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	Pkg  *Package

	// Recv is the named receiver object, nil for functions and literals.
	Recv types.Object
	// Params are the named parameter objects in signature order (blank
	// and unnamed parameters appear as nil).
	Params []types.Object
	// Enclosing is the node lexically containing a literal, nil otherwise.
	Enclosing *FuncNode
	// ClockExempt marks Clock-seam implementations (clockpurity's
	// exemption): their wall-clock reads do not taint callers.
	ClockExempt bool
	// NoAlloc marks functions declared `//rexlint:noalloc` in their doc
	// comment: alloccheck requires them allocation-free, and their callers
	// trust them.
	NoAlloc bool
	// DeclaredPure marks functions declared `//rexlint:pure`: the purity
	// analyzer requires them free of observable side effects, and their
	// callers trust them.
	DeclaredPure bool
	// Streams are the sorted `//rexlint:stream` names (a literal inherits
	// its enclosing declaration's); StreamSource marks the
	// `//rexlint:streamsource`; Sink is a `//rexlint:detsink` description.
	Streams      []string
	StreamSource bool
	Sink         string

	// Calls are the node's resolved outgoing call sites in source order.
	Calls []CallSite
}

// Name renders the node for diagnostics: "pkg.Func", "(pkg.T).Method", or
// "func literal (line N)" for literals.
func (n *FuncNode) Name() string {
	if n.Fn != nil {
		if sig, ok := n.Fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "(" + n.Pkg.Types.Name() + "." + recvTypeName(sig.Recv().Type()) + ")." + n.Fn.Name()
		}
		return n.Pkg.Types.Name() + "." + n.Fn.Name()
	}
	pos := n.Pkg.Fset.Position(n.Lit.Pos())
	return "func literal (line " + strconv.Itoa(pos.Line) + ")"
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// recvTypeName strips pointers down to the named receiver type's name.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// CallSite is one outgoing edge: a call expression, or the creation of a
// function literal, and the one callee it statically reaches, if any.
type CallSite struct {
	Pos token.Pos
	// Call is the call expression; nil when the edge is a function
	// literal charged to its creator.
	Call *ast.CallExpr
	// RecvExpr is the receiver operand for method calls (the x of x.M),
	// used to map callee receiver effects onto the caller's own receiver,
	// parameters, or globals.
	RecvExpr ast.Expr
	// Callee is the module-local target; nil for a stdlib or unknown call.
	Callee *FuncNode
	// Std is the qualified standard-library callee, e.g. "time.Now" or
	// "(sync.Mutex).Unlock"; "" for any other call.
	Std string
	// Unknown marks a dynamic call with no resolvable target; summaries
	// treat it as an arbitrary effect.
	Unknown bool
	// Async marks calls launched by a go statement: their effects happen
	// on another goroutine, so blocking does not block the caller.
	Async bool
}

// callGraph is the built graph plus its lookup indexes.
type callGraph struct {
	nodes  []*FuncNode // deterministic: package path, then file, then offset
	byFunc map[*types.Func]*FuncNode
	byLit  map[*ast.FuncLit]*FuncNode
	siteAt map[*ast.CallExpr]*CallSite // every recorded call, into its node's Calls
}

// buildCallGraph creates the nodes and edges for every function in pkgs.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{
		byFunc: make(map[*types.Func]*FuncNode),
		byLit:  make(map[*ast.FuncLit]*FuncNode),
		siteAt: make(map[*ast.CallExpr]*CallSite),
	}
	// Pass 1: nodes for every declared function, then every literal.
	for _, pkg := range pkgs {
		clockIface := findClockInterface(pkg.Types)
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Body: fd.Body, Pkg: pkg}
				node.ClockExempt = clockExempt(pkg.Info, fd, clockIface)
				node.NoAlloc = len(funcDirective(fd, "noalloc")) > 0
				node.DeclaredPure = len(funcDirective(fd, "pure")) > 0
				node.StreamSource = len(funcDirective(fd, "streamsource")) > 0
				node.Streams = slices.Concat(funcDirective(fd, "stream")...)
				slices.Sort(node.Streams)
				node.Streams = slices.Compact(node.Streams)
				if dirs := funcDirective(fd, "detsink"); len(dirs) > 0 {
					node.Sink = cmp.Or(strings.Join(dirs[0], " "), "deterministic output")
				}
				if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
					node.Recv = pkg.Info.Defs[fd.Recv.List[0].Names[0]]
				}
				node.Params = paramObjects(pkg.Info, fd.Type)
				g.byFunc[fn] = node
				g.nodes = append(g.nodes, node)
				g.addLits(node, fd.Body)
			}
		}
	}
	// Pass 2: resolve edges, every node (declared or literal) uniformly,
	// and index each call expression to its site once the node's list is
	// final.
	for _, n := range g.nodes {
		g.resolveCalls(n)
		for i := range n.Calls {
			if call := n.Calls[i].Call; call != nil {
				g.siteAt[call] = &n.Calls[i]
			}
		}
	}
	sort.Slice(g.nodes, func(i, j int) bool { return nodeLess(g.nodes[i], g.nodes[j]) })
	return g
}

// nodeLess orders nodes by package path, file name, then offset — never by
// raw token.Pos across files, which follows the order the loader's
// concurrent parse happened to register them in the FileSet.
func nodeLess(a, b *FuncNode) bool {
	if a.Pkg.Path != b.Pkg.Path {
		return a.Pkg.Path < b.Pkg.Path
	}
	pa, pb := a.Pkg.Fset.Position(a.Pos()), b.Pkg.Fset.Position(b.Pos())
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// addLits registers a node for every function literal nested in body,
// recording lexical enclosure. A literal nested inside another literal
// encloses to the inner one.
func (g *callGraph) addLits(encl *FuncNode, block *ast.BlockStmt) {
	var walk func(owner *FuncNode, n ast.Node)
	walk = func(owner *FuncNode, n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			lit, ok := x.(*ast.FuncLit)
			if !ok {
				return true
			}
			node := &FuncNode{Lit: lit, Body: lit.Body, Pkg: owner.Pkg, Enclosing: owner, Streams: owner.Streams}
			node.Params = paramObjects(owner.Pkg.Info, lit.Type)
			g.byLit[lit] = node
			g.nodes = append(g.nodes, node)
			walk(node, lit.Body)
			return false
		})
	}
	walk(encl, block)
}

// paramObjects returns the named parameter objects of a signature's field
// list, nil-padded for unnamed parameters.
func paramObjects(info *types.Info, ft *ast.FuncType) []types.Object {
	if ft.Params == nil {
		return nil
	}
	var out []types.Object
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// resolveCalls walks n's own statements (stopping at nested literals,
// which are their own nodes) and records call sites.
func (g *callGraph) resolveCalls(n *FuncNode) {
	info := n.Pkg.Info
	binds := localFuncBindings(info, n.Body, g.byLit)

	// Pre-collect which call expressions sit under a go statement.
	async := map[*ast.CallExpr]bool{}
	inspectShallow(n.Body, func(x ast.Node) bool {
		if g, ok := x.(*ast.GoStmt); ok {
			async[g.Call] = true
		}
		return true
	})

	ast.Inspect(n.Body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.FuncLit:
			// The literal's body belongs to its own node; its creation is
			// an edge on the creator.
			if ln := g.byLit[s]; ln != nil {
				n.Calls = append(n.Calls, CallSite{Pos: s.Pos(), Callee: ln})
			}
			return false
		case *ast.CallExpr:
			g.callSite(n, s, binds, async[s])
		}
		return true
	})
}

// localFuncBindings maps local objects bound exactly once as
// `f := func(){...}` (and never reassigned) to their literal's node, so a
// later f() resolves statically.
func localFuncBindings(info *types.Info, body *ast.BlockStmt, byLit map[*ast.FuncLit]*FuncNode) map[types.Object]*FuncNode {
	out := map[types.Object]*FuncNode{}
	dead := map[types.Object]bool{}
	inspectShallow(body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			lit, isLit := ast.Unparen(as.Rhs[i]).(*ast.FuncLit)
			switch {
			case dead[obj]:
			case isLit && out[obj] == nil:
				if ln := byLit[lit]; ln != nil {
					out[obj] = ln
				}
			default: // reassigned, or non-literal value: ambiguous
				delete(out, obj)
				dead[obj] = true
			}
		}
		return true
	})
	return out
}

// callSite resolves one call expression into a CallSite on n.
func (g *callGraph) callSite(n *FuncNode, call *ast.CallExpr, binds map[types.Object]*FuncNode, async bool) {
	info := n.Pkg.Info
	site := CallSite{Pos: call.Pos(), Call: call, Async: async}
	fun := ast.Unparen(call.Fun)

	switch f := fun.(type) {
	case *ast.Ident:
		switch o := info.Uses[f].(type) {
		case *types.Func:
			g.addCallee(&site, o)
		case *types.Var:
			site.Callee = binds[o]
			site.Unknown = site.Callee == nil
		default:
			// Builtin, conversion, or unresolved: builtins and conversions
			// are classified as local effects by the summary layer.
			return
		}
	case *ast.FuncLit:
		site.Callee = g.byLit[f]
	case *ast.SelectorExpr:
		if _, isType := info.Uses[f.Sel].(*types.TypeName); isType {
			return // conversion pkg.T(x)
		}
		sel := info.Selections[f]
		if sel == nil {
			// Package-qualified function.
			if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
				g.addCallee(&site, fn)
			} else {
				return
			}
			break
		}
		site.RecvExpr = f.X
		fn, ok := sel.Obj().(*types.Func)
		switch {
		case !ok:
			site.Unknown = true // struct field of function type
		case sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv()):
			site.Unknown = true // interface dispatch: no callee is guessed
		default:
			g.addCallee(&site, fn)
		}
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Generic instantiation, or indexing into a function table.
		if id, ok := indexeeIdent(fun); ok {
			if fn, okF := info.Uses[id].(*types.Func); okF {
				g.addCallee(&site, fn)
				break
			}
		}
		site.Unknown = true
	default:
		site.Unknown = true
	}

	if site.Callee == nil && site.Std == "" && !site.Unknown {
		return
	}
	n.Calls = append(n.Calls, site)
}

// indexeeIdent unwraps X[...] to its base identifier when there is one.
func indexeeIdent(e ast.Expr) (*ast.Ident, bool) {
	switch x := e.(type) {
	case *ast.IndexExpr:
		id, ok := ast.Unparen(x.X).(*ast.Ident)
		return id, ok
	case *ast.IndexListExpr:
		id, ok := ast.Unparen(x.X).(*ast.Ident)
		return id, ok
	}
	return nil, false
}

// addCallee attaches a resolved *types.Func: module-local functions become
// node edges, everything else is recorded by qualified name.
func (g *callGraph) addCallee(site *CallSite, fn *types.Func) {
	if node, ok := g.byFunc[fn]; ok {
		site.Callee = node
	} else if fn.Pkg() != nil { // not error.Error and friends from the universe scope
		site.Std = qualifiedFuncName(fn)
	}
}

// qualifiedFuncName renders fn as "path.F" or "(path.T).M" using the full
// import path, the key format of the stdlib effect table.
func qualifiedFuncName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return "(" + fn.Pkg().Path() + "." + recvTypeName(sig.Recv().Type()) + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// funcNameOf returns the qualified name of the declared function a selector
// expression names ("os.Exit", "(sync.Mutex).Lock"), or "": the table key
// for calls and function values read without a resolved site.
func funcNameOf(info *types.Info, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || info == nil {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	return qualifiedFuncName(fn)
}
