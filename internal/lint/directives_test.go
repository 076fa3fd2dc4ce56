package lint

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestDirectiveKindsHaveWriters holds rexlint to reading only the
// directives the module writes: every kind in directiveKinds must occur at
// least once in a comment of the module's non-test Go files (fixtures under
// testdata do not count). A change that deletes a kind's last writer must
// delete the kind, and the code that reads it, too.
func TestDirectiveKindsHaveWriters(t *testing.T) {
	root := filepath.Join("..", "..")
	written := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if kind, _, ok := parseDirective(c); ok {
					written[kind] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range sortedKeys(directiveKinds) {
		if !written[kind] {
			t.Errorf("directive kind %q has no writer in the module: delete it and what reads it", kind)
		}
	}
}
