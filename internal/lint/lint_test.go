package lint_test

import (
	"strings"
	"testing"

	"rexchange/internal/lint"
	"rexchange/internal/lint/linttest"
)

// TestAnalyzers runs each analyzer over its fixture package and checks the
// reported diagnostics against the // want comments in the fixture.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		analyzer *lint.Analyzer
		fixture  string
	}{
		{lint.NoGlobalRand, "noglobalrand"},
		{lint.MapOrder, "maporder"},
		{lint.FloatEq, "floateq"},
		{lint.ErrIgnore, "errignore"},
		{lint.MetricName, "metricname"},
		{lint.LockCheck, "lockcheck"},
		{lint.ClockPurity, "clockpurity"},
		{lint.StateCheck, "statecheck"},
		{lint.LeakCheck, "leakcheck"},
		{lint.ShareCheck, "sharecheck"},
		{lint.AllocCheck, "alloccheck"},
		{lint.Purity, "purity"},
		{lint.StreamFlow, "streamflow"},
		{lint.DetFlow, "detflow"},
		{lint.NonNeg, "nonneg"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.fixture, func(t *testing.T) {
			t.Parallel()
			linttest.Run(t, tc.analyzer, tc.fixture)
		})
	}
}

// TestUnknownDirectiveKinds pins that a directive no analyzer reads is a
// finding, not a silent no-op: a `resource` and a `canonical` directive
// each fire, whichever analyzers run, while a kind the suite reads stays
// silent.
func TestUnknownDirectiveKinds(t *testing.T) {
	src := `package p

//rexlint:resource reservation held=InFlight acquire=reserve release=release

// canon sorts its input in place.
//
//rexlint:canonical
func canon(keys []string) []string { return keys }

// total is allocation-free.
//
//rexlint:noalloc
func total(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}
`
	prog, pkg := loadSnippet(t, "directives", src)
	for _, analyzers := range [][]*lint.Analyzer{nil, {lint.StateCheck, lint.DetFlow}} {
		diags, err := lint.RunAnalyzersIn(prog, pkg, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range diags {
			got = append(got, strings.TrimPrefix(d.String(), d.Pos.Filename+":"))
		}
		want := []string{
			"3:1: unknown directive rexlint:resource: no analyzer reads it (rexlint)",
			"7:1: unknown directive rexlint:canonical: no analyzer reads it (rexlint)",
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("with %d analyzers:\n%s\nwant:\n%s", len(analyzers), strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestAnalyzerScopes pins the package-scope policy wired up by Analyzers:
// which analyzers apply to which parts of the module.
func TestAnalyzerScopes(t *testing.T) {
	byName := map[string]*lint.Analyzer{}
	for _, a := range lint.Analyzers("rexchange") {
		byName[a.Name] = a
	}
	cases := []struct {
		analyzer string
		pkg      string
		want     bool
	}{
		{"noglobalrand", "rexchange/internal/core", true},
		{"noglobalrand", "rexchange/cmd/rexbench", true},
		{"maporder", "rexchange/internal/core", true},
		{"maporder", "rexchange/internal/des", true},
		{"maporder", "rexchange/internal/invindex", false},
		{"floateq", "rexchange/internal/des", true},
		{"floateq", "rexchange/internal/lint", false},
		{"errignore", "rexchange/internal/plan", true},
		{"errignore", "rexchange/cmd/rexbench", false},
		{"metricname", "rexchange/internal/ctl", true},
		{"metricname", "rexchange/cmd/rexd", true},
		{"lockcheck", "rexchange/internal/obs", true},
		{"lockcheck", "rexchange/cmd/rexd", true},
		{"statecheck", "rexchange/internal/ctl", true},
		{"clockpurity", "rexchange/internal/ctl", true},
		{"clockpurity", "rexchange/internal/des", true},
		{"clockpurity", "rexchange/internal/lint", false},
		{"leakcheck", "rexchange/internal/ctl", true},
		{"leakcheck", "rexchange/cmd/rexd", true},
		{"leakcheck", "rexchange/internal/core", false},
		{"sharecheck", "rexchange/internal/core", true},
		{"sharecheck", "rexchange/internal/cluster", true},
		{"sharecheck", "rexchange/internal/lint", false},
		{"alloccheck", "rexchange/internal/cluster", true},
		{"alloccheck", "rexchange/cmd/rexd", true},
		{"purity", "rexchange/internal/vec", true},
		{"purity", "rexchange/internal/obs", true},
		{"streamflow", "rexchange/internal/des", true},
		{"streamflow", "rexchange/cmd/rexd", true},
		{"detflow", "rexchange/internal/obs", true},
		{"detflow", "rexchange/internal/des", true},
		{"detflow", "rexchange/internal/ctl", true},
		{"detflow", "rexchange/internal/core", false},
		{"nonneg", "rexchange/internal/cluster", true},
		{"nonneg", "rexchange/internal/lint", true},
	}
	for _, tc := range cases {
		a, ok := byName[tc.analyzer]
		if !ok {
			t.Fatalf("analyzer %s not registered", tc.analyzer)
		}
		if got := a.AppliesTo(tc.pkg); got != tc.want {
			t.Errorf("%s.AppliesTo(%s) = %v, want %v", tc.analyzer, tc.pkg, got, tc.want)
		}
	}
}

// TestLoaderLoadsModulePackages is a smoke test that the source loader can
// typecheck a real module package (with stdlib imports) offline.
func TestLoaderLoadsModulePackages(t *testing.T) {
	loader := linttest.NewLoader(t)
	pkgs, err := loader.Load([]string{"./internal/vec"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if pkgs[0].Types.Name() != "vec" {
		t.Errorf("package name = %s, want vec", pkgs[0].Types.Name())
	}
	if len(pkgs[0].Files) == 0 {
		t.Error("no files loaded for internal/vec")
	}
}
