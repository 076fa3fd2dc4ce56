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

// LoadFixtures loads every package under testdata/src as fixture/<name>,
// one PackageSet each in directory order, under the given build tags. With
// module set it appends the module's packages (./...), loaded by a loader
// of their own, as a last set named "module". It is exported for the
// external test package.
func LoadFixtures(t testing.TB, tags []string, module bool) []PackageSet {
	t.Helper()
	newLoader := func() *Loader {
		loader, err := NewLoader(filepath.Join("..", ".."))
		if err != nil {
			t.Fatal(err)
		}
		loader.SetBuildTags(tags)
		return loader
	}
	root := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	loader := newLoader()
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
		loader := newLoader()
		if _, err := loader.Load([]string{"./..."}); err != nil {
			t.Fatal(err)
		}
		sets = append(sets, PackageSet{Name: "module", Pkgs: loader.Packages()})
	}
	return sets
}
