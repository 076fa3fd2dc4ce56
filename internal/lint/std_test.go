package lint

import (
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiShape renders the exported package-scope API of pkg, one line per
// object: types.ObjectString, its underlying type, and for a type name
// the exported methods of a pointer to it.
func apiShape(pkg *types.Package) []string {
	qual := func(p *types.Package) string { return p.Path() }
	scope := pkg.Scope()
	var out []string
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		line := types.ObjectString(obj, qual) + " | " + types.TypeString(obj.Type().Underlying(), qual)
		if tn, ok := obj.(*types.TypeName); ok {
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < mset.Len(); i++ {
				if m := mset.At(i); m.Obj().Exported() {
					line += " | " + types.SelectionString(m, qual)
				}
			}
		}
		out = append(out, line)
	}
	return out
}

// TestStdExportMatchesSource loads the module, then imports every
// standard-library package of its closure twice: from the export data the
// shared cache reads, and with the standard library's own source importer
// under the loader's build context (no cgo). The two must declare the same
// exported API.
func TestStdExportMatchesSource(t *testing.T) {
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load([]string{"./..."}); err != nil {
		t.Fatal(err)
	}
	l.std.mu.Lock()
	paths := make([]string, 0, len(l.std.exports))
	for path := range l.std.exports {
		paths = append(paths, path)
	}
	l.std.mu.Unlock()
	sort.Strings(paths)
	if len(paths) < 100 {
		t.Fatalf("the stdlib cache lists %d packages; the module's closure is larger", len(paths))
	}

	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
	source := importer.ForCompiler(token.NewFileSet(), "source", nil)
	objects := 0
	for _, path := range paths {
		got, err := l.std.loadStd(path)
		if err != nil {
			t.Fatalf("export data: %v", err)
		}
		want, err := source.Import(path)
		if err != nil {
			t.Fatalf("source: %v", err)
		}
		w, g := apiShape(want), apiShape(got)
		for i := 0; i < len(w) || i < len(g); i++ {
			var wl, gl string
			if i < len(w) {
				wl = w[i]
			}
			if i < len(g) {
				gl = g[i]
			}
			if wl != gl {
				t.Errorf("%s: exported API differs:\n\tsource:      %q\n\texport data: %q", path, wl, gl)
				break
			}
		}
		objects += len(w)
	}
	t.Logf("%d packages, %d exported package-scope objects", len(paths), objects)
}

// TestStdLoadNamedErrors: a loader that cannot run the go command, or
// meets an import outside the module and the standard library, fails
// with an error that names the cause. Each case uses a tag set of its
// own, so it starts from an empty stdlib cache.
func TestStdLoadNamedErrors(t *testing.T) {
	t.Run("no go command", func(t *testing.T) {
		l, err := NewLoader(filepath.Join("..", ".."))
		if err != nil {
			t.Fatal(err)
		}
		l.SetBuildTags([]string{"lint_no_go_command"})
		t.Setenv("PATH", "")
		if _, err := l.Load([]string{"./internal/stats"}); err == nil || !strings.Contains(err.Error(), "go list") {
			t.Errorf("Load = %v, want an error naming go list", err)
		}
	})
	t.Run("import outside the standard library", func(t *testing.T) {
		dir := t.TempDir()
		for name, src := range map[string]string{
			"go.mod": "module example.com/tmp\n\ngo 1.22\n",
			"p.go":   "package p\n\nimport (\n\t_ \"example.com/nope\"\n\t_ \"fmt\"\n)\n",
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, err := NewLoader(dir)
		if err != nil {
			t.Fatal(err)
		}
		l.SetBuildTags([]string{"lint_unresolved_import"})
		want := `cannot resolve import "example.com/nope" (only module-local and standard-library imports are supported)`
		if _, err := l.Load([]string{"./..."}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Load = %v, want an error containing %s", err, want)
		}
	})
}

// BenchmarkStdLoad times one cold load of the stdlib closure the module
// imports, on a fresh cache each iteration rather than the process-wide
// one: the go list call plus the imports, the loader's own share of
// lint.load_s (with a warm build cache).
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
		if err := c.list(roots); err != nil {
			b.Fatal(err)
		}
		for _, path := range roots {
			if _, err := c.loadStd(path); err != nil {
				b.Fatal(err)
			}
		}
	}
}
