package lint

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// shapeCases are the declaration forms shapeSource must see through. Each
// must keep its line count and its package-scope shape.
var shapeCases = []struct{ name, src string }{
	{"bodiless func then literal", `package p

type T struct{ a, b int }

// add is implemented in assembly.
func add(x, y int) int

var x = T{
	a: 1,
	b: 2,
}
`},
	{"generics and receivers", `package p

func F[T interface{ ~int }](v T) T {
	return v + 1
}

type G[K comparable, V any] struct{ m map[K]V }

func (g *G[K, V]) Get(k K) V { return g.m[k] }

func (g G[K, V]) Len() int {
	return len(g.m)
}

func (G[K, V]) Zero() (v V) { return }
`},
	{"struct result before body", `package p

func f() struct{ a int } {
	return struct{ a int }{1}
}

func g() interface{ M() int } {
	return nil
}

func h() (r struct {
	b string
}) {
	return
}
`},
	{"map of empty structs", `package p

type set map[string]struct{}

var m = map[string]struct{}{
	"a": {},
	"b": {},
}

var s = set{"c": {}}
`},
	{"ellipsis array length", `package p

var a = [...]int{1, 2, 3}

const n = len(a)

var b = [...]struct{ x int }{{1}, {2}}

const m = len(b)

var c = [...][2]func() int{{nil, nil}, {}, {}}

const k = len(c)

var d = [ /* three */ ...]string{
	"x", "y", "z", "w",
}

const l = len(d)

var e = [3]int{1, 2, 3}

const o = len(e)

var f = [...]string{2: "two", 0: "zero"}

const p = len(f)

var g = &[...]int{
	4, 5, // comment, with commas
	6,
}

const q = len(g)

var h = [...][len([...]int{1, 2})]int{{1}, {2}, {}}

const r = len(h)

var i = [...]any{"{", '}', ` + "`,`" + `, (1), [1]int{}, struct{}{}}

const s = len(i)
`},
	{"braces in strings runes and comments", `package p

var open = ` + "`{`" + `

var s = "{\"{"

var r = '{'

var q = '\''

// {
/* { */

type T struct {
	a int ` + "`tag:\"{\"`" + `
}

func f() string { return "}" + ` + "`}`" + ` + string('}') } // }

var raw = ` + "`" + `{
}}` + "`" + `

var after = [...]int{1, 2}

const n = len(after)

var close = ` + "`}`" + `
`},
	{"var groups", `package p

var (
	a = []int{1, 2}
	b = map[int]string{
		1: "x",
	}
	c, d = T{}, &T{a: 1}
	e    = [...]byte{'{', '}', 3}
)

const ne = len(e)

type (
	T struct{ a int }
	I interface {
		M() int
	}
)

const (
	k = iota
	l
)
`},
	{"func literal initializers", `package p

var f = func() int {
	return 1
}()

var g = func(x int) string { return "" }

var h = []func(){func() {}}

var w = len([]int{1, 2, 3})

func id[T any](x T) T { return x }

var v = id(func() int { return 1 })

var u = id([]int{1, 2})

const c = len([...]int{1, 2, 3})
`},
}

// noImports refuses every import: shape sources import nothing.
type noImports struct{}

func (noImports) Import(path string) (*types.Package, error) {
	return nil, fmt.Errorf("no imports here: %q", path)
}

// errParse marks a source that go/parser rejects.
var errParse = errors.New("source does not parse")

// sourceShape parses src as the one file of package p and checks it as
// the stdlib cache does, returning its package-scope shape. The error
// wraps errParse when src does not parse.
func sourceShape(src []byte) ([]string, *ast.File, error) {
	c := newStdCache(nil)
	f, err := parser.ParseFile(c.fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errParse, err)
	}
	pkg, err := c.check("p", ".", []*ast.File{f}, noImports{})
	if err != nil {
		return nil, f, err
	}
	return scopeShape(pkg, c.fset), f, nil
}

// scopeShape renders the package-scope API of pkg, one line per object:
// its line, types.ObjectString, its underlying type, for a type name the
// method set of a pointer to it, and for a constant its exact value.
func scopeShape(pkg *types.Package, fset *token.FileSet) []string {
	qual := func(p *types.Package) string { return p.Path() }
	scope := pkg.Scope()
	var out []string
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		pos := fset.Position(obj.Pos())
		line := fmt.Sprintf("%s:%d %s | %s", filepath.Base(pos.Filename), pos.Line,
			types.ObjectString(obj, qual), types.TypeString(obj.Type().Underlying(), qual))
		switch obj := obj.(type) {
		case *types.TypeName:
			mset := types.NewMethodSet(types.NewPointer(obj.Type()))
			for i := 0; i < mset.Len(); i++ {
				line += " | " + mset.At(i).String()
			}
		case *types.Const:
			line += " = " + obj.Val().ExactString()
		}
		out = append(out, line)
	}
	return out
}

// diffShapes reports the first line where two shapes differ, or "".
func diffShapes(want, got []string) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			return fmt.Sprintf("full parse: %q\n\tshaped:     %q", w, g)
		}
	}
	return ""
}

// checkShaped holds shapeSource's output for src to src itself: the same
// newline count, a parse whenever src parses, and the same package-scope
// shape whenever src typechecks.
func checkShaped(t *testing.T, src []byte) []byte {
	t.Helper()
	want, _, wantErr := sourceShape(src)
	if errors.Is(wantErr, errParse) {
		return nil
	}
	shaped := shapeSource(bytes.Clone(src))
	if n, m := bytes.Count(src, []byte{'\n'}), bytes.Count(shaped, []byte{'\n'}); n != m {
		t.Fatalf("shaped source has %d newlines, the source %d:\n%s", m, n, shaped)
	}
	got, _, gotErr := sourceShape(shaped)
	if errors.Is(gotErr, errParse) {
		t.Fatalf("the source parses but its shape does not: %v\n%s", gotErr, shaped)
	}
	if wantErr != nil {
		return shaped
	}
	if gotErr != nil {
		t.Fatalf("the source typechecks but its shape does not: %v\n%s", gotErr, shaped)
	}
	if d := diffShapes(want, got); d != "" {
		t.Fatalf("package scope differs:\n\t%s\nshaped source:\n%s", d, shaped)
	}
	return shaped
}

// emptied reports the first function body or top-level composite literal
// that the shaped file f still has contents in, other than a keyed
// [...]T literal's.
func emptied(f *ast.File) error {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Body != nil && len(d.Body.List) > 0 {
				return fmt.Errorf("func %s keeps its body", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					if u, ok := v.(*ast.UnaryExpr); ok {
						v = u.X
					}
					if call, ok := v.(*ast.CallExpr); ok {
						v = call.Fun
					}
					switch v := v.(type) {
					case *ast.CompositeLit:
						if len(v.Elts) > 0 {
							_, keyed := v.Elts[0].(*ast.KeyValueExpr)
							if at, ok := v.Type.(*ast.ArrayType); ok && keyed {
								if _, ok := at.Len.(*ast.Ellipsis); ok {
									continue
								}
							}
							return fmt.Errorf("literal for %s keeps its elements", vs.Names[0].Name)
						}
					case *ast.FuncLit:
						if len(v.Body.List) > 0 {
							return fmt.Errorf("func literal for %s keeps its body", vs.Names[0].Name)
						}
					}
				}
			}
		}
	}
	return nil
}

// TestShapeSourceCases holds shapeSource to a full parse on each
// declaration form it must see through, and checks that it empties the
// bodies and literals it may.
func TestShapeSourceCases(t *testing.T) {
	for _, tc := range shapeCases {
		t.Run(tc.name, func(t *testing.T) {
			src := []byte(tc.src)
			if _, _, err := sourceShape(src); err != nil {
				t.Fatalf("case does not typecheck: %v", err)
			}
			shaped := checkShaped(t, src)
			_, f, err := sourceShape(shaped)
			if err != nil {
				t.Fatal(err)
			}
			if err := emptied(f); err != nil {
				t.Errorf("%v:\n%s", err, shaped)
			}
			if len(shaped) >= len(src) {
				t.Errorf("shaped source is %d bytes, the source %d: nothing was emptied", len(shaped), len(src))
			}
		})
	}
}

// FuzzShapeSource feeds shapeSource any source: whatever go/parser accepts
// must still parse after it, with the same newlines, and whatever
// typechecks must keep its package-scope shape.
func FuzzShapeSource(f *testing.F) {
	for _, tc := range shapeCases {
		f.Add([]byte(tc.src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		checkShaped(t, src)
	})
}

// fullParse is TestStdShapeMatchesFullParse's oracle: an importer that
// checks stdlib packages from their files as written, into its own cache.
type fullParse struct{ c *stdCache }

func (o fullParse) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := o.c.pkgs[path]; ok {
		return p, nil
	}
	dir, err := o.c.stdDir(path)
	if err != nil {
		return nil, err
	}
	files, err := parseGoDir(o.c.fset, &o.c.ctx, dir, parser.SkipObjectResolution, nil)
	if err != nil {
		return nil, err
	}
	p, err := o.c.check(path, dir, files, o)
	if err != nil {
		return nil, err
	}
	o.c.pkgs[path] = p
	return p, nil
}

// TestStdShapeMatchesFullParse loads the module, then checks every package
// the shared stdlib cache holds again from a full parse, into a fresh
// cache: the two closures must hold the same packages with the same
// package-scope shapes.
func TestStdShapeMatchesFullParse(t *testing.T) {
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load([]string{"./..."}); err != nil {
		t.Fatal(err)
	}
	l.std.mu.Lock()
	shaped := make(map[string]*types.Package, len(l.std.pkgs))
	for path, p := range l.std.pkgs {
		shaped[path] = p
	}
	l.std.mu.Unlock()
	paths := make([]string, 0, len(shaped))
	for path := range shaped {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	if len(paths) < 100 {
		t.Fatalf("the stdlib cache holds %d packages; the module's closure is larger", len(paths))
	}

	oracle := fullParse{newStdCache(nil)}
	objects := 0
	for _, path := range paths {
		full, err := oracle.Import(path)
		if err != nil {
			t.Fatalf("full parse: %v", err)
		}
		want, got := scopeShape(full, oracle.c.fset), scopeShape(shaped[path], l.std.fset)
		if d := diffShapes(want, got); d != "" {
			t.Errorf("%s: package scope differs:\n\t%s", path, d)
		}
		objects += len(want)
	}
	if len(oracle.c.pkgs) != len(paths) {
		t.Errorf("full parse closure holds %d packages, the shaped one %d", len(oracle.c.pkgs), len(paths))
	}
	t.Logf("%d packages, %d package-scope objects", len(paths), objects)
}

// BenchmarkStdLoad times one cold load of the stdlib closure the module
// imports, on a fresh cache each iteration rather than the process-wide
// one: the loader's own share of lint.load_s.
func BenchmarkStdLoad(b *testing.B) {
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := l.Load([]string{"./..."})
	if err != nil {
		b.Fatal(err)
	}
	seen := make(map[string]bool)
	var roots []string
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if path := imp.Path(); !l.moduleLocal(path) && !seen[path] {
				seen[path] = true
				roots = append(roots, path)
			}
		}
	}
	sort.Strings(roots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := newStdCache(nil)
		for _, path := range roots {
			if _, err := c.loadStd(path); err != nil {
				b.Fatal(err)
			}
		}
	}
}
