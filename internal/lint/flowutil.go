package lint

// Shared helpers for the dataflow-based analyzers: canonical keys for
// lvalue paths, directive parsing, and AST walks that respect function
// boundaries.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// exprKey canonicalizes an ident/selector path (`c`, `c.mu`, `st.status`)
// into a string key rooted at the types.Object of the leftmost identifier,
// so shadowed names never collide and the same path always produces the
// same key within a function. ok is false for expressions that are not
// simple paths (index expressions, calls, literals).
func exprKey(info *types.Info, e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return "", false
		}
		return objKey(obj), true
	case *ast.SelectorExpr:
		base, ok := exprKey(info, x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	case *ast.StarExpr:
		return exprKey(info, x.X)
	}
	return "", false
}

// objKey renders the key root exprKey uses for obj.
func objKey(obj types.Object) string { return fmt.Sprintf("v%p", obj) }

// rootObject returns the types.Object of the leftmost identifier of a
// path expression, or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// renderPath renders an ident/selector path for diagnostics ("c.mu").
func renderPath(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return renderPath(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return renderPath(x.X)
	}
	return "<expr>"
}

// inspectShallow walks n like ast.Inspect but does not descend into
// function literals: fn sees a nested literal itself, not its body, which
// has its own control flow and is analyzed as its own node. It is the one
// walker of CFG nodes; since a node holds only its own syntax (cfg.go), a
// walk never re-reads statements of another block.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x != n {
			fn(x)
			return false
		}
		return fn(x)
	})
}

// parseDirective splits one comment of the form `//rexlint:<kind>
// args...` into its kind, which ends at the first space or tab, and its
// argument fields. ok is false for any other comment.
func parseDirective(c *ast.Comment) (kind string, args []string, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	rest, ok := strings.CutPrefix(text, "rexlint:")
	if !ok {
		return "", nil, false
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], strings.Fields(rest[i:]), true
	}
	return rest, nil, true
}

// directiveArgs parses one comment as a `//rexlint:<name> args...`
// directive and returns its argument fields. The name must end at a word
// boundary, so `rexlint:stream` never matches `rexlint:streamsource`.
func directiveArgs(c *ast.Comment, name string) (args []string, ok bool) {
	kind, args, ok := parseDirective(c)
	if !ok || kind != name {
		return nil, false
	}
	return args, true
}

// groupDirective returns the argument fields of each occurrence of the
// named directive in one comment group (nil-safe): a function's, type's or
// field's doc comment.
func groupDirective(cg *ast.CommentGroup, name string) [][]string {
	if cg == nil {
		return nil
	}
	var out [][]string
	for _, c := range cg.List {
		if args, ok := directiveArgs(c, name); ok {
			out = append(out, args)
		}
	}
	return out
}

// directives returns the argument fields of each occurrence of the named
// directive anywhere in the files' comments.
func directives(files []*ast.File, name string) [][]string {
	var out [][]string
	for _, f := range files {
		for _, cg := range f.Comments {
			out = append(out, groupDirective(cg, name)...)
		}
	}
	return out
}

// funcDirective extracts `//rexlint:<name> ...` lines from one function's
// doc comment.
func funcDirective(fd *ast.FuncDecl, name string) [][]string {
	if fd == nil {
		return nil
	}
	return groupDirective(fd.Doc, name)
}

// qualifierPath reports the import path when sel is a package-qualified
// reference (`pkg.Name`); ok is false for field and method selections.
func qualifierPath(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// sortedKeys returns m's keys in lexicographic order, the iteration order
// of every map whose contents reach a diagnostic or a summary.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// blockFallsToExit reports whether b flows into the synthetic exit block
// without an explicit return/panic node of its own — the implicit return
// at the closing brace.
func blockFallsToExit(g *CFG, b *Block, info *types.Info) bool {
	toExit := false
	for _, e := range b.Succs {
		if e.To == g.Exit {
			toExit = true
		}
	}
	if !toExit {
		return false
	}
	for _, n := range b.Nodes {
		if isFlowExit(info, n) {
			return false
		}
	}
	return true
}

// forEachAccess classifies, within one straight-line node, which selector
// expressions are written (assignment LHS, ++/--, or address-taken) and
// calls fn for each selector access with its write-ness.
func forEachAccess(n ast.Node, fn func(sel *ast.SelectorExpr, write bool)) {
	writes := map[ast.Expr]bool{}
	// markWrite records e and, for index/deref targets like `s.m[k]` or
	// `*s.p`, the underlying base path as written.
	var markWrite func(e ast.Expr)
	markWrite = func(e ast.Expr) {
		e = ast.Unparen(e)
		writes[e] = true
		switch x := e.(type) {
		case *ast.IndexExpr:
			markWrite(x.X)
		case *ast.StarExpr:
			markWrite(x.X)
		}
	}
	inspectShallow(n, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(s.X)
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				markWrite(s.X)
			}
		}
		return true
	})
	inspectShallow(n, func(x ast.Node) bool {
		if sel, ok := x.(*ast.SelectorExpr); ok {
			fn(sel, writes[sel])
		}
		return true
	})
}
