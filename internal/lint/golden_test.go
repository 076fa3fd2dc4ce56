package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rexchange/internal/lint"
)

var update = flag.Bool("update", false, "rewrite testdata/diagnostics.golden from the current analyzers")

// TestFixtureDiagnosticsGolden holds the bytes the `// want` regexps do not:
// every analyzer runs over every fixture package — its own and the other
// fourteen — and the rendered diagnostics must equal the committed golden
// file. Message drift and a neighbour analyzer starting to fire on a fixture
// both fail here. Regenerate on purpose with
//
//	go test ./internal/lint/ -run TestFixtureDiagnosticsGolden -update
func TestFixtureDiagnosticsGolden(t *testing.T) {
	const golden = "testdata/diagnostics.golden"
	var got strings.Builder
	for _, set := range lint.LoadFixtures(t, nil, false) {
		pkg := set.Pkgs[0]
		for _, a := range lint.Analyzers("rexchange") {
			unscoped := *a
			unscoped.AppliesTo = nil
			// A fresh Program per run: waiver use-marks are Program state.
			diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{&unscoped})
			if err != nil {
				t.Fatalf("run %s on %s: %v", a.Name, set.Name, err)
			}
			for _, d := range diags {
				got.WriteString(filepath.ToSlash(d.String()))
				got.WriteByte('\n')
			}
		}
	}
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("diagnostics differ from %s at line %d (rerun with -update if intended):\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}
