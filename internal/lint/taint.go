package lint

// The one local taint analysis, shared by clockpurity, streamflow and
// detflow: a forward may-analysis over one function's CFG whose fact maps
// exprKey paths to the sources their value may hold. Each analyzer names
// its sources; the flow carries them through assignments, declarations,
// range loops, composite literals, conversions, append and copy. Nothing
// crosses a call, and closures do not inherit captured variables' taint.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// taint is the set of sources a value may hold ("time.Now", "workload",
// "map iteration order"), each with the callee it was minted through (""
// for a local source). A taint is never written after it is built.
type taint map[string]string

// union returns the sources of t and u; where both hold a name, t's wins.
func (t taint) union(u taint) taint {
	if len(u) == 0 {
		return t
	}
	if len(t) == 0 {
		return u
	}
	out := maps.Clone(u)
	maps.Copy(out, t)
	return out
}

// chain renders the blame suffix of a source minted through a callee.
func (t taint) chain(name string) string {
	if via := t[name]; via != "" {
		return " (via " + via + ")"
	}
	return ""
}

// taintFact maps exprKey paths to the taint of their value.
type taintFact map[string]taint

// taintFlow is the Flow of the local taint analysis.
type taintFlow struct {
	info  *types.Info
	prog  *Program
	entry taintFact // parameters' taint at function entry
	// source is the taint e introduces by itself, or nil.
	source func(e ast.Expr) taint
	// order marks an ordering: a map range is a source, a sort./slices.
	// call clears its arguments, a write into a map element absorbs it, a
	// value holds its fields' order, and formatting keeps it.
	order bool
}

func (tf *taintFlow) Entry() taintFact { return tf.entry }

func (tf *taintFlow) Join(a, b taintFact) taintFact {
	out := maps.Clone(a)
	for k, t := range b {
		out.set(k, out[k].union(t))
	}
	return out
}

func (tf *taintFlow) Equal(a, b taintFact) bool {
	return maps.EqualFunc(a, b, func(x, y taint) bool { return maps.Equal(x, y) })
}

func (tf *taintFlow) Transfer(n ast.Node, in taintFact) taintFact {
	f := maps.Clone(in)
	inspectShallow(n, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			tf.call(&f, call)
		}
		return true
	})
	switch s := n.(type) {
	case *ast.AssignStmt:
		rhs := make([]taint, len(s.Lhs))
		for i := range rhs {
			rhs[i] = tf.taintOf(s.Rhs[min(i, len(s.Rhs)-1)], f)
		}
		for i, lhs := range s.Lhs {
			tf.write(&f, lhs, rhs[i], s.Tok == token.DEFINE || s.Tok == token.ASSIGN)
		}
	case *ast.DeclStmt:
		for _, spec := range s.Decl.(*ast.GenDecl).Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for i, name := range vs.Names {
					var t taint
					if len(vs.Values) > 0 {
						t = tf.taintOf(vs.Values[min(i, len(vs.Values)-1)], f)
					}
					tf.write(&f, name, t, true)
				}
			}
		}
	case *ast.RangeStmt:
		// Elements inherit the container's taint; a map range orders the key.
		t := tf.taintOf(s.X, f)
		var key taint
		if tf.order && isMap(tf.info.TypeOf(s.X)) {
			t = t.union(taint{"map iteration order": ""})
			key = t
		}
		tf.write(&f, s.Key, key, true)
		tf.write(&f, s.Value, t, true)
	}
	return f
}

// set records t as key's taint; an empty taint removes the key.
func (f *taintFact) set(key string, t taint) {
	switch {
	case len(t) == 0:
		delete(*f, key)
	case *f == nil:
		*f = taintFact{key: t}
	default:
		(*f)[key] = t
	}
}

// write updates the taint of an assignment target (none when lhs is nil).
// A path target gets a strong update (its fields die with it); an index
// target joins into its base path, except that an ordering written into a
// map element is absorbed: the map has no order to perturb.
func (tf *taintFlow) write(f *taintFact, lhs ast.Expr, t taint, strong bool) {
	target := ast.Unparen(lhs)
	for ix, ok := target.(*ast.IndexExpr); ok; ix, ok = target.(*ast.IndexExpr) {
		if tf.order && isMap(tf.info.TypeOf(ix.X)) {
			t = nil
		}
		target, strong = ast.Unparen(ix.X), false
	}
	key, ok := exprKey(tf.info, target)
	if !ok {
		return
	}
	if strong {
		for k := range *f {
			if strings.HasPrefix(k, key+".") {
				delete(*f, k)
			}
		}
	} else {
		t = (*f)[key].union(t)
	}
	f.set(key, t)
}

// call applies what a call does to the paths it is handed: copy joins its
// source into its destination, and a sorter clears an ordering.
func (tf *taintFlow) call(f *taintFact, call *ast.CallExpr) {
	if isBuiltinCall(tf.info, call, "copy") && len(call.Args) == 2 {
		tf.write(f, call.Args[0], tf.taintOf(call.Args[1], *f), false)
	} else if tf.order && tf.prog.SiteAt(call).std().order == orderSanitize {
		for _, arg := range call.Args {
			tf.write(f, unwrapConversion(tf.info, arg), nil, true)
		}
	}
}

// taintOf evaluates the taint of an expression under fact f.
func (tf *taintFlow) taintOf(e ast.Expr, f taintFact) taint {
	e = ast.Unparen(e)
	if t := tf.source(e); t != nil {
		return t
	}
	var t taint
	switch x := e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		// A path holds its own taint and its ancestors' (root first), and
		// an ordering holds its fields' too.
		key, _ := exprKey(tf.info, e)
		for i, c := range key {
			if c == '.' {
				t = t.union(f[key[:i]])
			}
		}
		t = t.union(f[key])
		for k, u := range f {
			if tf.order && strings.HasPrefix(k, key+".") {
				t = t.union(u)
			}
		}
	case *ast.StarExpr:
		t = tf.taintOf(x.X, f)
	case *ast.UnaryExpr:
		t = tf.taintOf(x.X, f)
	case *ast.SliceExpr:
		t = tf.taintOf(x.X, f)
	case *ast.TypeAssertExpr:
		t = tf.taintOf(x.X, f)
	case *ast.BinaryExpr:
		t = tf.taintOf(x.X, f).union(tf.taintOf(x.Y, f))
	case *ast.IndexExpr:
		t = tf.taintOf(x.X, f).union(tf.taintOf(x.Index, f))
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			t = t.union(tf.taintOf(elt, f))
		}
	case *ast.CallExpr:
		// A conversion, append, or formatting an ordering keeps its
		// arguments' taint; any other result holds none.
		if tv, ok := tf.info.Types[x.Fun]; ok && tv.IsType() || isBuiltinCall(tf.info, x, "append") ||
			tf.order && tf.prog.SiteAt(x).std().order == orderKeep {
			for _, arg := range x.Args {
				t = t.union(tf.taintOf(arg, f))
			}
		}
	}
	return t
}

// eachCall solves tf over n and visits every call with the fact before it.
func (tf *taintFlow) eachCall(n *FuncNode, visit func(call *ast.CallExpr, f taintFact)) {
	replay[taintFact](tf.prog.CFG(n), tf, func(node ast.Node, f taintFact) {
		inspectShallow(node, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				visit(call, f)
			}
			return true
		})
	})
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// unwrapConversion strips a single conversion wrapper (sort.Sort(byName(v))).
func unwrapConversion(info *types.Info, e ast.Expr) ast.Expr {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return call.Args[0]
		}
	}
	return e
}
