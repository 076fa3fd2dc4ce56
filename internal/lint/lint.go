// Package lint implements rexlint, the project's custom static-analysis
// suite. It mirrors the shape of golang.org/x/tools/go/analysis — analyzers
// receive a typed, parsed package ("pass") and report position-tagged
// diagnostics — but is built entirely on the standard library (go/ast,
// go/parser, go/types) so the repository carries no external dependencies.
//
// The suite encodes the project's correctness contracts as machine-checked
// rules; Analyzers (analyzers.go) lists all of them with the packages each
// one guards.
//
// A diagnostic can be suppressed by a comment on the same line or the line
// directly above it:
//
//	//rexlint:ignore <analyzer> <reason>
//
// The reason is mandatory by convention (the analyzers do not parse it, but
// reviewers should reject bare ignores).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static-analysis rule.
type Analyzer struct {
	// Name is the short identifier used in output and ignore comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// AppliesTo reports whether the analyzer should run on the package with
	// the given import path. nil means every package. The test harness
	// ignores this field and always runs the analyzer on its fixtures.
	AppliesTo func(pkgPath string) bool
	// Run performs the analysis, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding: a position and a message, tagged with the
// analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic in the conventional file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the interprocedural context: the module-local call graph
	// and function summaries over every package of the run (summary.go).
	// Never nil inside Run.
	Prog *Program

	diags   *[]Diagnostic
	ignores *ignoreSet
	pkgRef  *Package
}

// pkg returns the loaded package under analysis (the *Package behind the
// exported Fset/Files/Pkg/TypesInfo fields), for analyzers that consult
// the interprocedural program.
func (p *Pass) pkg() *Package { return p.pkgRef }

// Reportf records a diagnostic at pos unless an ignore comment suppresses
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is the comment prefix that suppresses diagnostics.
const ignoreDirective = "rexlint:ignore"

// ignoreEntry is one parsed rexlint:ignore directive naming one analyzer.
// The same entry backs the directive's own line and the line below, so a
// suppression on either marks it used.
type ignoreEntry struct {
	name string // analyzer name or "all"
	pos  token.Position
	used bool
}

// ignoreSet indexes a package's ignore directives by file and line.
type ignoreSet struct {
	lines map[string]map[int][]*ignoreEntry // filename → line → entries
	all   []*ignoreEntry                    // in directive order
}

// suppressed reports whether an ignore entry covers a diagnostic from the
// named analyzer at pos, marking the entry used.
func (s *ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	if s == nil {
		return false
	}
	hit := false
	for _, e := range s.lines[pos.Filename][pos.Line] {
		if e.name == analyzer || e.name == "all" {
			e.used = true
			hit = true
		}
	}
	return hit
}

// buildIgnores scans the package's comments for rexlint:ignore directives.
// A directive suppresses the named analyzers on its own line and on the
// line immediately below (for whole-line comments placed above the code).
func buildIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	out := &ignoreSet{lines: make(map[string]map[int][]*ignoreEntry)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, ignoreDirective))
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := out.lines[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*ignoreEntry)
					out.lines[pos.Filename] = lines
				}
				for _, name := range strings.Split(fields[0], ",") {
					e := &ignoreEntry{name: name, pos: pos}
					out.all = append(out.all, e)
					lines[pos.Line] = append(lines[pos.Line], e)
					lines[pos.Line+1] = append(lines[pos.Line+1], e)
				}
			}
		}
	}
	return out
}

// unusedIgnores reports directives that suppressed nothing as diagnostics
// under the pseudo-analyzer name "rexlint". Only directives naming an
// analyzer that actually ran on the package are checked: an ignore for an
// out-of-scope analyzer cannot prove itself either way.
func (s *ignoreSet) unusedIgnores(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range s.all {
		if e.used || (e.name != "all" && !ran[e.name]) {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: "rexlint",
			Pos:      e.pos,
			Message:  fmt.Sprintf("unused rexlint:ignore for %s: no diagnostic here to suppress", e.name),
		})
	}
	return out
}

// RunAnalyzers executes every analyzer that applies to pkg and returns the
// diagnostics sorted by position. The interprocedural program is built
// over pkg alone; whole-module runs should build one Program over every
// loaded package and use RunAnalyzersIn so summaries cross package
// boundaries.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunAnalyzersIn(NewProgram([]*Package{pkg}), pkg, analyzers)
}

// RunAnalyzersIn executes every analyzer that applies to pkg with prog as
// the interprocedural context, appends unused-suppression diagnostics, and
// returns everything sorted by position.
func RunAnalyzersIn(prog *Program, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	ignores := prog.ignoresFor(pkg)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
			continue
		}
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Prog:      prog,
			diags:     &diags,
			ignores:   ignores,
			pkgRef:    pkg,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = append(diags, ignores.unusedIgnores(ran)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
