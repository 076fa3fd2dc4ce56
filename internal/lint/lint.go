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
	// Prog is the whole-run context: the module-local call graph and
	// function summaries over every package of the run (summary.go).
	// Never nil inside Run.
	Prog *Program

	diags  *[]Diagnostic
	pkgRef *Package
}

// pkg returns the loaded package under analysis (the *Package behind the
// exported Fset/Files/Pkg/TypesInfo fields), for analyzers that consult
// the program.
func (p *Pass) pkg() *Package { return p.pkgRef }

// Reportf records a diagnostic at pos unless an ignore comment suppresses
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Prog.waiversFor(p.pkgRef).covers(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// lineDirective is one parsed line-level waiver: a rexlint:ignore naming
// one analyzer, or a rexlint:transfer (sharecheck's ownership hand-off).
// The same entry backs the directive's own line and the line below, so a
// finding on either marks it used.
type lineDirective struct {
	name string // analyzer name or "all" for an ignore; "" for a transfer
	pos  token.Position
	used bool
}

// lineDirectives indexes a package's line-level waivers by file and line,
// and holds the findings for its directives of a kind the suite does not
// read.
type lineDirectives struct {
	lines   map[string]map[int][]*lineDirective // filename → line → entries
	all     []*lineDirective                    // in directive order
	unknown []Diagnostic
}

// covers reports whether a waiver covers pos — an ignore naming the
// analyzer (or "all"), or with name "" a transfer — marking it used.
func (s *lineDirectives) covers(name string, pos token.Position) bool {
	hit := false
	for _, e := range s.lines[pos.Filename][pos.Line] {
		if e.name == name || e.name == "all" {
			e.used = true
			hit = true
		}
	}
	return hit
}

// buildLineDirectives scans the package's comments for line-level waivers.
// A directive covers its own line and the line immediately below (for
// whole-line comments placed above the code). A directive of a kind outside
// directiveKinds is recorded as a finding under the pseudo-analyzer name
// "rexlint": it would look like a contract while checking nothing.
func buildLineDirectives(fset *token.FileSet, files []*ast.File) *lineDirectives {
	out := &lineDirectives{lines: make(map[string]map[int][]*lineDirective)}
	add := func(c *ast.Comment, name string) {
		pos := fset.Position(c.Pos())
		lines := out.lines[pos.Filename]
		if lines == nil {
			lines = make(map[int][]*lineDirective)
			out.lines[pos.Filename] = lines
		}
		e := &lineDirective{name: name, pos: pos}
		out.all = append(out.all, e)
		lines[pos.Line] = append(lines[pos.Line], e)
		lines[pos.Line+1] = append(lines[pos.Line+1], e)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				kind, args, ok := parseDirective(c)
				switch {
				case !ok:
				case kind == "ignore":
					if len(args) > 0 {
						for _, name := range strings.Split(args[0], ",") {
							add(c, name)
						}
					}
				case kind == "transfer":
					add(c, "")
				case !directiveKinds[kind]:
					out.unknown = append(out.unknown, Diagnostic{
						Analyzer: "rexlint",
						Pos:      fset.Position(c.Pos()),
						Message:  fmt.Sprintf("unknown directive rexlint:%s: no analyzer reads it", kind),
					})
				}
			}
		}
	}
	return out
}

// unusedIgnores reports ignores that suppressed nothing as diagnostics
// under the pseudo-analyzer name "rexlint". Only directives naming an
// analyzer that actually ran on the package are checked: an ignore for an
// out-of-scope analyzer cannot prove itself either way.
func (s *lineDirectives) unusedIgnores(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range s.all {
		if e.used || e.name == "" || (e.name != "all" && !ran[e.name]) {
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

// directiveKinds are the `//rexlint:<kind>` directives some part of the
// suite reads.
var directiveKinds = map[string]bool{
	"ignore":       true, // line-level waiver of any analyzer
	"transfer":     true, // sharecheck, line-level hand-off
	"transition":   true, // statecheck
	"owned":        true, // sharecheck
	"noalloc":      true, // alloccheck
	"pure":         true, // purity
	"streamsource": true, // streamflow
	"stream":       true, // streamflow
	"detsink":      true, // detflow
	"nonneg":       true, // nonneg
}

// unusedTransfers reports transfers that sanctioned nothing, under
// sharecheck's name.
func (s *lineDirectives) unusedTransfers() []Diagnostic {
	var out []Diagnostic
	for _, e := range s.all {
		if e.used || e.name != "" {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: "sharecheck",
			Pos:      e.pos,
			Message:  "unused rexlint:transfer: no ownership hand-off here to sanction",
		})
	}
	return out
}

// RunAnalyzersIn executes every analyzer that applies to pkg with prog as
// the whole-run context, appends unused-suppression and
// unknown-directive diagnostics, and returns everything sorted by position.
func RunAnalyzersIn(prog *Program, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	waivers := prog.waiversFor(pkg)
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
			pkgRef:    pkg,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = append(diags, waivers.unusedIgnores(ran)...)
	diags = append(diags, waivers.unknown...)
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
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}
