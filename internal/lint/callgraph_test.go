package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rexchange/internal/lint"
)

// loadSnippet typechecks one synthetic package and builds its
// interprocedural program.
func loadSnippet(t *testing.T, name, src string) (*lint.Program, *lint.Package) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.ModuleLoader(t, nil).LoadDir(dir, "snippet/"+name)
	if err != nil {
		t.Fatalf("load snippet %s: %v", name, err)
	}
	return lint.NewProgram([]*lint.Package{pkg}), pkg
}

// nodeByName finds a function node by its rendered name.
func nodeByName(t *testing.T, prog *lint.Program, pkg *lint.Package, name string) *lint.FuncNode {
	t.Helper()
	var names []string
	for _, n := range prog.NodesOf(pkg) {
		if n.Name() == name {
			return n
		}
		names = append(names, n.Name())
	}
	t.Fatalf("no node named %q; have %s", name, strings.Join(names, ", "))
	return nil
}

// calleeNames renders the resolved callees of every call site in n,
// sorted per site, as "a,b; c" for comparison.
func calleeNames(prog *lint.Program, n *lint.FuncNode) []string {
	var out []string
	for _, site := range prog.EffectiveCalls(n) {
		if site.Std != nil || site.Unknown {
			continue
		}
		var names []string
		for _, c := range site.Callees {
			names = append(names, c.Name())
		}
		out = append(out, strings.Join(names, ","))
	}
	return out
}

// TestCallGraphResolution pins how the call graph resolves the dispatch
// shapes the summary engine depends on: static calls, interface methods
// (module-declared interfaces only), method values, and closures used as
// callbacks. Each case states the expected callee lists per call site in
// source order.
func TestCallGraphResolution(t *testing.T) {
	cases := []struct {
		name string
		src  string
		fn   string   // node under inspection
		want []string // per-site resolved callee names, source order
	}{
		{
			name: "static",
			src: `package p
func a() { b(); c() }
func b() {}
func c() {}
`,
			fn:   "p.a",
			want: []string{"p.b", "p.c"},
		},
		{
			name: "interface_dispatch",
			src: `package p
type runner interface{ run() }
type fast struct{}
func (fast) run() {}
type slow struct{}
func (*slow) run() {}
func drive(r runner) { r.run() }
`,
			fn:   "p.drive",
			want: []string{"(p.fast).run,(p.slow).run"},
		},
		{
			name: "method_value",
			src: `package p
type box struct{ n int }
func (b *box) poke() { b.n++ }
func use(b *box) {
	f := b.poke
	f()
}
`,
			fn:   "p.use",
			want: []string{"(p.box).poke"},
		},
		{
			name: "closure_callback",
			src: `package p
func apply(f func() int) int { return f() }
func caller() int {
	n := 1
	return apply(func() int { return n })
}
`,
			fn:   "p.caller",
			want: []string{"p.apply", "func literal (line 5)"},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog, pkg := loadSnippet(t, tc.name, tc.src)
			n := nodeByName(t, prog, pkg, tc.fn)
			got := calleeNames(prog, n)
			if len(got) != len(tc.want) {
				t.Fatalf("call sites = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("site %d resolved to %q, want %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestSummaryFixpoint pins effect propagation through the bottom-up solve:
// effects cross recursion cycles, interface dispatch, and method values,
// and the fixpoint terminates on self-referential summaries.
func TestSummaryFixpoint(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		fn      string
		wantSet uint16 // bits that must be set
		wantClr uint16 // bits that must be clear
	}{
		{
			name: "recursion_clean",
			src: `package p
func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}
func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}
`,
			fn:      "p.even",
			wantClr: lint.EffAlloc | lint.EffGlobal | lint.EffUnknown,
		},
		{
			name: "effect_crosses_cycle",
			src: `package p
import "time"
func a(n int) {
	if n > 0 {
		b(n - 1)
	}
}
func b(n int) {
	_ = time.Now()
	a(n)
}
`,
			fn:      "p.a",
			wantSet: lint.EffClock,
		},
		{
			name: "interface_effect_union",
			src: `package p
var hits int
type op interface{ do() }
type pureOp struct{}
func (pureOp) do() {}
type countOp struct{}
func (countOp) do() { hits++ }
func run(o op) { o.do() }
`,
			fn:      "p.run",
			wantSet: lint.EffGlobal,
		},
		{
			name: "alloc_through_method_value",
			src: `package p
type maker struct{}
func (maker) grow(xs []int) []int { return append(xs, 1) }
func use(m maker, xs []int) []int {
	f := m.grow
	return f(xs)
}
`,
			fn:      "p.use",
			wantSet: lint.EffAlloc,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog, pkg := loadSnippet(t, tc.name, tc.src)
			sum := prog.SummaryOf(nodeByName(t, prog, pkg, tc.fn))
			if got := sum.Mask & tc.wantSet; got != tc.wantSet {
				t.Errorf("mask %#x missing wanted bits %#x", sum.Mask, tc.wantSet&^got)
			}
			if got := sum.Mask & tc.wantClr; got != 0 {
				t.Errorf("mask %#x has forbidden bits %#x", sum.Mask, got)
			}
		})
	}
}

// TestUnusedTransferDirective pins that a //rexlint:transfer which
// sanctions nothing is itself reported, while a consumed one stays silent.
func TestUnusedTransferDirective(t *testing.T) {
	src := `package p

//rexlint:owned
type Box struct{ n int }

var keep *Box

func used(b *Box) {
	//rexlint:transfer the global takes ownership
	keep = b
}

func unused() int {
	//rexlint:transfer nothing escapes here
	return 1
}
`
	prog, pkg := loadSnippet(t, "transfers", src)
	diags, err := lint.RunAnalyzersIn(prog, pkg, []*lint.Analyzer{lint.ShareCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly one unused-transfer", diags)
	}
	if !strings.Contains(diags[0].Message, "unused rexlint:transfer") {
		t.Errorf("diagnostic %q, want unused rexlint:transfer", diags[0].Message)
	}
	if want := 14; diags[0].Pos.Line != want {
		t.Errorf("reported at line %d, want %d (the unused directive)", diags[0].Pos.Line, want)
	}
}

// TestProgramCFGShared pins the substrate's one-graph-per-node contract:
// every analysis that asks the Program for a node's CFG gets the same
// graph, and a literal's node owns a graph of its own, distinct from its
// enclosing declaration's.
func TestProgramCFGShared(t *testing.T) {
	src := `package p

func outer(n int) func() int {
	if n > 0 {
		n--
	}
	return func() int { return n }
}
`
	prog, pkg := loadSnippet(t, "cfgshared", src)
	outer := nodeByName(t, prog, pkg, "p.outer")
	if g := prog.CFG(outer); g == nil || g != prog.CFG(outer) {
		t.Fatalf("two CFG(outer) calls returned %p and %p, want one shared graph", g, prog.CFG(outer))
	}
	var lit *lint.FuncNode
	for _, n := range prog.NodesOf(pkg) {
		if n.Enclosing == outer {
			lit = n
		}
	}
	if lit == nil {
		t.Fatal("no node for the literal nested in outer")
	}
	if prog.CFG(lit) == prog.CFG(outer) {
		t.Error("the literal and its enclosing declaration share one CFG")
	}
	if prog.CFG(lit) != prog.CFG(lit) {
		t.Error("two CFG(literal) calls returned different graphs")
	}
}

// TestIgnoreAndTransferShareOneIndex pins the waiver index both directive
// kinds live in: each covers its own line and the next, marks itself used,
// a stale one is reported under its historical pseudo-analyzer with its
// historical message, a transfer suppresses no finding, and directive names
// end at a word boundary: `rexlint:ignoreall` is no ignore but a directive
// of an unknown kind.
func TestIgnoreAndTransferShareOneIndex(t *testing.T) {
	src := `package p

import "math/rand"

//rexlint:owned
type Box struct{ n int }

var keep *Box

func handOff(b *Box) {
	//rexlint:ignore all suppresses every analyzer, sharecheck included
	keep = b
}

func draws() int {
	//rexlint:transfer a transfer is not an ignore
	return rand.Intn(3)
}

func waived() int {
	return rand.Intn(3) //rexlint:ignore noglobalrand,floateq fixture
}

//rexlint:ignoreall noglobalrand not a directive: no word boundary
func stale() int {
	//rexlint:ignore noglobalrand nothing fires below
	return 1
}
`
	prog, pkg := loadSnippet(t, "waivers", src)
	diags, err := lint.RunAnalyzersIn(prog, pkg, []*lint.Analyzer{lint.NoGlobalRand, lint.ShareCheck})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, strings.TrimPrefix(d.String(), d.Pos.Filename+":"))
	}
	want := []string{
		"16:2: unused rexlint:transfer: no ownership hand-off here to sanction (sharecheck)",
		"17:9: global math/rand.Intn draws from shared scheduler-dependent state; thread a seeded *rand.Rand (from Config.Seed) instead (noglobalrand)",
		"24:1: unknown directive rexlint:ignoreall: no analyzer reads it (rexlint)",
		"26:2: unused rexlint:ignore for noglobalrand: no diagnostic here to suppress (rexlint)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestInterfaceCalleesInFileOrder pins that interface dispatch lists its
// candidate callees by file name and offset, not by raw token.Pos: the
// loader parses a package's files concurrently, so which file gets the
// lower FileSet base varies from run to run, and first-trace-wins
// provenance follows callee order.
func TestInterfaceCalleesInFileOrder(t *testing.T) {
	files := map[string]string{
		"a.go": "package p\n\ntype A struct{}\n\nfunc (A) Do() {}\n",
		"b.go": "package p\n\ntype B struct{}\n\nfunc (B) Do() {}\n",
		"c.go": "package p\n\ntype C struct{}\n\nfunc (C) Do() {}\n",
		"z.go": "package p\n\ntype Doer interface{ Do() }\n\nfunc run(d Doer) { d.Do() }\n",
	}
	for i := 0; i < 20; i++ {
		dir := t.TempDir()
		for name, src := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		pkg, err := lint.ModuleLoader(t, nil).LoadDir(dir, "snippet/order")
		if err != nil {
			t.Fatal(err)
		}
		prog := lint.NewProgram([]*lint.Package{pkg})
		got := calleeNames(prog, nodeByName(t, prog, pkg, "p.run"))
		if want := "(p.A).Do,(p.B).Do,(p.C).Do"; len(got) != 1 || got[0] != want {
			t.Fatalf("run %d: callees of d.Do() = %v, want [%s]", i, got, want)
		}
	}
}
