package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// PackageSet is one set of packages a whole-program test runs over: a
// fixture package under testdata/src, or the module's own packages.
type PackageSet struct {
	Name string
	Pkgs []*Package
}

// ModuleLoader returns a loader rooted at the repository's module under the
// given build tags (nil for the default set). It is exported for the
// external test package.
func ModuleLoader(t testing.TB, tags []string) *Loader {
	t.Helper()
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader.SetBuildTags(tags)
	return loader
}

// LoadFixtures loads every package under testdata/src as fixture/<name>,
// one PackageSet each in directory order, under the given build tags. With
// module set it appends the module's packages (./...), loaded by a loader
// of their own, as a last set named "module". It is exported for the
// external test package.
func LoadFixtures(t testing.TB, tags []string, module bool) []PackageSet {
	t.Helper()
	root := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	loader := ModuleLoader(t, tags)
	var sets []PackageSet
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg, err := loader.LoadDir(filepath.Join(root, e.Name()), "fixture/"+e.Name())
		if err != nil {
			t.Fatalf("load fixture %s: %v", e.Name(), err)
		}
		sets = append(sets, PackageSet{Name: e.Name(), Pkgs: []*Package{pkg}})
	}
	if module {
		loader := ModuleLoader(t, tags)
		if _, err := loader.Load([]string{"./..."}); err != nil {
			t.Fatal(err)
		}
		sets = append(sets, PackageSet{Name: "module", Pkgs: loader.Packages()})
	}
	return sets
}

// RunUnscoped runs analyzer a alone over pkg with its driver scope
// stripped, on a fresh Program over pkg alone (waiver use-marks are
// Program state), and returns the diagnostics sorted by position. It is
// exported for the external test package.
func RunUnscoped(t testing.TB, a *Analyzer, pkg *Package) []Diagnostic {
	t.Helper()
	unscoped := *a
	unscoped.AppliesTo = nil
	diags, err := RunAnalyzersIn(NewProgram([]*Package{pkg}), pkg, []*Analyzer{&unscoped})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, pkg.Path, err)
	}
	return diags
}
