package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// buildTestCFG parses src (function declarations, no package clause) and
// builds the CFG of the first function with a body.
func buildTestCFG(t *testing.T, src string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfgtest.go", "package p\n\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return BuildCFG(fd.Body, nil)
		}
	}
	t.Fatalf("no function with body in source")
	return nil
}

// condEdgeCount counts edges carrying a branch condition.
func condEdgeCount(g *CFG) (pos, neg int) {
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.Cond == nil {
				continue
			}
			if e.Neg {
				neg++
			} else {
				pos++
			}
		}
	}
	return pos, neg
}

// dumpCFG renders g for a failure message, one block per line:
//
//	b0[entry]: 2 nodes -> b1(cond) b3(!cond)
func dumpCFG(g *CFG) string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		tag := ""
		switch blk {
		case g.Entry:
			tag = "[entry]"
		case g.Exit:
			tag = "[exit]"
		}
		fmt.Fprintf(&sb, "b%d%s: %d nodes ->", blk.Index, tag, len(blk.Nodes))
		for _, e := range blk.Succs {
			switch {
			case e.Cond == nil:
				fmt.Fprintf(&sb, " b%d", e.To.Index)
			case e.Neg:
				fmt.Fprintf(&sb, " b%d(!cond)", e.To.Index)
			default:
				fmt.Fprintf(&sb, " b%d(cond)", e.To.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// hasCycle reports whether the reachable part of g contains a cycle.
func hasCycle(g *CFG) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Block]int)
	var visit func(*Block) bool
	visit = func(b *Block) bool {
		color[b] = gray
		for _, e := range b.Succs {
			switch color[e.To] {
			case gray:
				return true
			case white:
				if visit(e.To) {
					return true
				}
			}
		}
		color[b] = black
		return false
	}
	return visit(g.Entry)
}

func TestCFGConstruction(t *testing.T) {
	tests := []struct {
		name string
		src  string
		// expectations
		exitReachable bool
		cycle         bool
		posCond       int // -1 = don't check
		negCond       int
		defers        int
		check         func(t *testing.T, g *CFG)
	}{
		{
			name: "straight line",
			src: `func f() {
				x := 1
				x++
				_ = x
			}`,
			exitReachable: true, cycle: false, posCond: 0, negCond: 0,
		},
		{
			name: "if else",
			src: `func f(a bool) int {
				if a {
					return 1
				} else {
					return 2
				}
			}`,
			exitReachable: true, cycle: false, posCond: 1, negCond: 1,
		},
		{
			name: "if without else falls through",
			src: `func f(a bool) {
				if a {
					println("t")
				}
				println("after")
			}`,
			exitReachable: true, cycle: false, posCond: 1, negCond: 1,
		},
		{
			name: "short-circuit and",
			src: `func f(a, b bool) {
				if a && b {
					println("both")
				}
			}`,
			exitReachable: true, cycle: false, posCond: 2, negCond: 2,
		},
		{
			name: "short-circuit or with not",
			src: `func f(a, b, c bool) {
				if !(a || b) && c {
					println("x")
				}
			}`,
			exitReachable: true, cycle: false, posCond: 3, negCond: 3,
		},
		{
			name: "for loop with condition",
			src: `func f(n int) {
				for i := 0; i < n; i++ {
					println(i)
				}
			}`,
			exitReachable: true, cycle: true, posCond: 1, negCond: 1,
		},
		{
			name: "infinite for never exits",
			src: `func f() {
				for {
					println("spin")
				}
			}`,
			exitReachable: false, cycle: true, posCond: 0, negCond: 0,
		},
		{
			name: "infinite for with break exits",
			src: `func f(a bool) {
				for {
					if a {
						break
					}
				}
			}`,
			exitReachable: true, cycle: true, posCond: -1, negCond: -1,
		},
		{
			name: "nested loops unlabeled break only exits inner",
			src: `func f() {
				for {
					for {
						break
					}
				}
			}`,
			exitReachable: false, cycle: true, posCond: -1, negCond: -1,
		},
		{
			name: "labeled break exits outer",
			// the only path breaks straight out, so no reachable cycle
			src: `func f() {
			outer:
				for {
					for {
						break outer
					}
				}
			}`,
			exitReachable: true, cycle: false, posCond: -1, negCond: -1,
		},
		{
			name: "labeled continue targets outer loop",
			src: `func f(n int) {
			outer:
				for i := 0; i < n; i++ {
					for {
						continue outer
					}
				}
			}`,
			exitReachable: true, cycle: true, posCond: -1, negCond: -1,
		},
		{
			name: "range loop",
			src: `func f(xs []int) {
				for _, x := range xs {
					println(x)
				}
			}`,
			exitReachable: true, cycle: true, posCond: 0, negCond: 0,
		},
		{
			name: "switch with tag synthesizes eq conds",
			src: `func f(x int) {
				switch x {
				case 1, 2:
					println("small")
				case 3:
					println("three")
				}
			}`,
			// one cond edge per case expression: 1, 2, 3
			exitReachable: true, cycle: false, posCond: 3, negCond: 0,
			check: func(t *testing.T, g *CFG) {
				// every synthesized cond is tag == caseExpr
				for _, b := range g.Blocks {
					for _, e := range b.Succs {
						if e.Cond == nil {
							continue
						}
						be, ok := e.Cond.(*ast.BinaryExpr)
						if !ok || be.Op != token.EQL {
							t.Errorf("switch edge cond is %T, want == BinaryExpr", e.Cond)
						}
					}
				}
			},
		},
		{
			name: "switch with default has no direct exit edge from head",
			src: `func f(x int) int {
				switch x {
				case 1:
					return 1
				default:
					return 0
				}
			}`,
			exitReachable: true, cycle: false, posCond: 1, negCond: 0,
		},
		{
			name: "switch fallthrough chains case bodies",
			src: `func f(x int) {
				n := 0
				switch x {
				case 1:
					n++
					fallthrough
				case 2:
					n++
				}
				_ = n
			}`,
			exitReachable: true, cycle: false, posCond: 2, negCond: 0,
			check: func(t *testing.T, g *CFG) {
				// the two case blocks must be connected: some non-head
				// block with nodes has an unconditional edge to another
				// block with nodes that also reaches exit
				found := false
				for _, b := range g.Blocks {
					for _, e := range b.Succs {
						if e.Cond == nil && len(b.Nodes) > 0 && len(e.To.Nodes) > 0 && e.To != g.Exit {
							found = true
						}
					}
				}
				if !found {
					t.Errorf("no fallthrough edge found between case bodies")
				}
			},
		},
		{
			name: "condition switch uses case exprs as conds",
			src: `func f(x int) {
				switch {
				case x > 0:
					println("pos")
				case x < 0:
					println("neg")
				}
			}`,
			exitReachable: true, cycle: false, posCond: 2, negCond: 0,
		},
		{
			name: "defer recorded and kept in block",
			src: `func f() {
				defer println("done")
				defer println("done2")
				println("work")
			}`,
			exitReachable: true, cycle: false, posCond: 0, negCond: 0, defers: 2,
			check: func(t *testing.T, g *CFG) {
				n := 0
				for _, b := range g.Blocks {
					for _, nd := range b.Nodes {
						if _, ok := nd.(*ast.DeferStmt); ok {
							n++
						}
					}
				}
				if n != 2 {
					t.Errorf("defer nodes in blocks = %d, want 2", n)
				}
			},
		},
		{
			name: "panic edges to exit and kills fallthrough",
			src: `func f(a bool) {
				if a {
					panic("boom")
				}
				println("after")
			}`,
			exitReachable: true, cycle: false, posCond: 1, negCond: 1,
			check: func(t *testing.T, g *CFG) {
				// the block containing panic must have exactly one succ: Exit
				for _, b := range g.Blocks {
					for _, nd := range b.Nodes {
						es, ok := nd.(*ast.ExprStmt)
						if !ok {
							continue
						}
						call, ok := es.X.(*ast.CallExpr)
						if !ok {
							continue
						}
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
							if len(b.Succs) != 1 || b.Succs[0].To != g.Exit {
								t.Errorf("panic block succs = %v, want single edge to exit", b.Succs)
							}
						}
					}
				}
			},
		},
		{
			name: "statements after return are unreachable",
			src: `func f() int {
				return 1
				println("dead")
			}`,
			exitReachable: true, cycle: false, posCond: 0, negCond: 0,
			check: func(t *testing.T, g *CFG) {
				reach := g.Reachable()
				dead := 0
				for _, b := range g.Blocks {
					if !reach[b] && len(b.Nodes) > 0 {
						dead++
					}
				}
				if dead == 0 {
					t.Errorf("expected an unreachable block holding the dead statement")
				}
			},
		},
		{
			name: "goto backward forms a cycle",
			src: `func f() {
			top:
				println("x")
				goto top
			}`,
			exitReachable: false, cycle: true, posCond: 0, negCond: 0,
		},
		{
			name: "goto forward skips code",
			src: `func f(a bool) {
				if a {
					goto done
				}
				println("work")
			done:
				println("done")
			}`,
			exitReachable: true, cycle: false, posCond: 1, negCond: 1,
		},
		{
			name: "empty select never continues",
			src: `func f() {
				select {}
			}`,
			exitReachable: false, cycle: false, posCond: 0, negCond: 0,
		},
		{
			name: "select with clauses branches per clause",
			src: `func f(a, b chan int) {
				select {
				case <-a:
					println("a")
				case v := <-b:
					println(v)
				}
			}`,
			exitReachable: true, cycle: false, posCond: 0, negCond: 0,
		},
		{
			name: "for select done pattern exits",
			src: `func f(done chan struct{}, work chan int) {
				for {
					select {
					case <-done:
						return
					case w := <-work:
						println(w)
					}
				}
			}`,
			exitReachable: true, cycle: true, posCond: 0, negCond: 0,
		},
		{
			name: "type switch branches per clause",
			src: `func f(x interface{}) {
				switch v := x.(type) {
				case int:
					println(v)
				case string:
					println(v)
				}
			}`,
			exitReachable: true, cycle: false, posCond: 0, negCond: 0,
		},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			g := buildTestCFG(t, tt.src)
			if got := g.ExitReachable(); got != tt.exitReachable {
				t.Errorf("exit reachable = %v, want %v\n%s", got, tt.exitReachable, dumpCFG(g))
			}
			if got := hasCycle(g); got != tt.cycle {
				t.Errorf("cycle = %v, want %v\n%s", got, tt.cycle, dumpCFG(g))
			}
			if tt.posCond >= 0 {
				pos, neg := condEdgeCount(g)
				if pos != tt.posCond || neg != tt.negCond {
					t.Errorf("cond edges = (%d pos, %d neg), want (%d, %d)\n%s",
						pos, neg, tt.posCond, tt.negCond, dumpCFG(g))
				}
			}
			if len(g.Defers) != tt.defers {
				t.Errorf("defers = %d, want %d", len(g.Defers), tt.defers)
			}
			if tt.check != nil {
				tt.check(t, g)
			}
		})
	}
}

// assignedFlow is a forward must-analysis used to exercise the solver: the
// fact is the set of variable names assigned on EVERY path so far
// (intersection at joins).
type assignedFlow struct{}

func (assignedFlow) Entry() map[string]bool { return map[string]bool{} }

func (assignedFlow) Join(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func (assignedFlow) Equal(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (assignedFlow) Transfer(n ast.Node, in map[string]bool) map[string]bool {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return in
	}
	out := map[string]bool{}
	for k := range in {
		out[k] = true
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			out[id.Name] = true
		}
	}
	return out
}

func TestForwardMustAssigned(t *testing.T) {
	g := buildTestCFG(t, `func f(c bool) {
		var a, b, both, neither int
		x := 1
		if c {
			a = x
			both = x
		} else {
			b = x
			both = x
		}
		_ = a
		_ = b
		_ = both
		_ = neither
	}`)
	facts := Forward[map[string]bool](g, assignedFlow{})
	atExit, ok := facts.In[g.Exit]
	if !ok {
		t.Fatalf("no fact at exit\n%s", dumpCFG(g))
	}
	var got []string
	for k := range atExit {
		got = append(got, k)
	}
	sort.Strings(got)
	want := "both x"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("must-assigned at exit = %q, want %q\n%s", s, want, dumpCFG(g))
	}
}

func TestForwardLoopConverges(t *testing.T) {
	g := buildTestCFG(t, `func f(n int) {
		for i := 0; i < n; i++ {
			x := i
			_ = x
		}
		y := 1
		_ = y
	}`)
	facts := Forward[map[string]bool](g, assignedFlow{})
	atExit := facts.In[g.Exit]
	// i := 0 runs before the loop, x only inside the body (the body may
	// execute zero times), y always after.
	if !atExit["i"] || !atExit["y"] || atExit["x"] {
		t.Errorf("must-assigned at exit = %v, want i,y but not x\n%s", atExit, dumpCFG(g))
	}
}

// TestCFGNodesDisjoint holds the CFG's one invariant: a node holds only its
// own syntax, and every call of the body is in some node. For every
// function node of every fixture package and of the module, under the
// default tags and under debugasserts, no node's [Pos, End) contains the
// Pos of another node of the same graph — so a reader walking one node
// never reads another block's statements — and every CallExpr of the body
// outside nested function literals lies inside some node, so no reader
// misses it.
func TestCFGNodesDisjoint(t *testing.T) {
	for _, tags := range [][]string{nil, {"debugasserts"}} {
		var pkgs []*Package
		for _, set := range LoadFixtures(t, tags, true) {
			pkgs = append(pkgs, set.Pkgs...)
		}
		nested, uncovered := 0, 0
		for _, n := range buildCallGraph(pkgs).nodes {
			var nodes []ast.Node
			for _, b := range BuildCFG(n.Body, n.Pkg.Info).Blocks {
				nodes = append(nodes, b.Nodes...)
			}
			sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].Pos() < nodes[j].Pos() })
			// Sorted by Pos, a node's Pos lies inside another's extent
			// exactly when it lies before the furthest End seen so far.
			var outer ast.Node
			for _, x := range nodes {
				if outer != nil && x.Pos() < outer.End() {
					if nested++; nested <= 5 {
						t.Errorf("tags %v: %s: node at %s lies inside the node at %s",
							tags, n.Name(), n.Pkg.Fset.Position(x.Pos()), n.Pkg.Fset.Position(outer.Pos()))
					}
				}
				if outer == nil || x.End() > outer.End() {
					outer = x
				}
			}
			ast.Inspect(n.Body, func(x ast.Node) bool {
				if _, ok := x.(*ast.FuncLit); ok {
					return false
				}
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				// The last node starting at or before the call is the
				// only one that can hold it: nodes are disjoint.
				i := sort.Search(len(nodes), func(i int) bool { return nodes[i].Pos() > call.Pos() })
				if i == 0 || call.End() > nodes[i-1].End() {
					if uncovered++; uncovered <= 5 {
						t.Errorf("tags %v: %s: call at %s lies in no CFG node",
							tags, n.Name(), n.Pkg.Fset.Position(call.Pos()))
					}
				}
				return true
			})
		}
		if nested > 0 || uncovered > 0 {
			t.Errorf("tags %v: %d CFG nodes lie inside another node, %d calls lie in no node", tags, nested, uncovered)
		}
	}
}
