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

// TestFixtureDiagnosticsGolden is the fixture oracle: every analyzer runs,
// unscoped, over every fixture package — its own and the other fourteen —
// and the rendered diagnostics, text and position, must equal the committed
// golden file byte for byte. A lost or new finding, message drift and a
// neighbour analyzer starting to fire on a fixture all fail here. A golden
// blessed with -update cannot tell an analyzer that went silent; that is
// TestAnalyzers' check. Regenerate on purpose with
//
//	go test ./internal/lint/ -run TestFixtureDiagnosticsGolden -update
func TestFixtureDiagnosticsGolden(t *testing.T) {
	const golden = "testdata/diagnostics.golden"
	got := fixtureDiagnostics(t)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if line, g, w := firstDiff(got, string(want)); line > 0 {
		t.Fatalf("diagnostics differ from %s at line %d (rerun with -update if intended):\n got: %s\nwant: %s", golden, line, g, w)
	}
}

// TestFixtureDiagnosticsDeterministic guards rexlint's own output against
// map order: the golden matrix, rendered five times from freshly loaded
// fixtures and fresh Programs, must come out byte-identical every time.
func TestFixtureDiagnosticsDeterministic(t *testing.T) {
	first := fixtureDiagnostics(t)
	for run := 2; run <= 5; run++ {
		if line, g, w := firstDiff(fixtureDiagnostics(t), first); line > 0 {
			t.Fatalf("run %d differs from run 1 at line %d:\n got: %s\nwant: %s", run, line, g, w)
		}
	}
}

// fixtureDiagnostics renders every analyzer over every fixture package —
// its own and the other fourteen — one diagnostic a line.
func fixtureDiagnostics(t *testing.T) string {
	t.Helper()
	var got strings.Builder
	for _, set := range lint.LoadFixtures(t, nil, false) {
		for _, a := range lint.Analyzers("rexchange") {
			for _, d := range lint.RunUnscoped(t, a, set.Pkgs[0]) {
				got.WriteString(filepath.ToSlash(d.String()))
				got.WriteByte('\n')
			}
		}
	}
	return got.String()
}

// firstDiff returns the first line (1-based) at which got and want differ,
// with both versions of it, or 0 when they are equal.
func firstDiff(got, want string) (line int, g, w string) {
	if got == want {
		return 0, "", ""
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		g, w = "", ""
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			return i + 1, g, w
		}
	}
}
