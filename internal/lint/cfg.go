package lint

// Intraprocedural control-flow graphs over go/ast, built from the standard
// library alone. Control statements are decomposed: a Block holds only
// "straight-line" nodes (assignments, calls, declarations, channel ops,
// return/defer/go statements, and the leaf condition expressions of the
// branches that end it), so dataflow transfer functions can walk each node
// without re-entering nested control flow.
//
// Invariant: a node holds only its own syntax. No node's [Pos, End)
// contains another node of the same graph, so inspectShallow (flowutil.go)
// is the one walker every reader uses on a node.
//
// Conventions:
//   - One synthetic Exit block. return statements, explicit panic(...)
//     calls, and calls that provably never return (os.Exit, log.Fatal*,
//     runtime.Goexit) edge to Exit.
//   - Branch conditions are decomposed through &&, || and ! so every
//     conditional edge carries a leaf condition: Edge.Cond is the
//     expression, Edge.Neg reports whether the edge is taken when it is
//     false.
//   - switch with a tag synthesizes `tag == caseExpr` conditions on the
//     case edges (one edge per case expression). The synthesized
//     ast.BinaryExpr wraps the original typechecked operands but is not
//     itself in types.Info.
//   - select is branching: one successor per comm clause; `select {}`
//     has no successors (blocks forever).
//   - defer statements appear both in their block (so analyzers see where
//     they are scheduled) and in CFG.Defers.
//   - a range loop's head block holds a header-only copy of the
//     RangeStmt (ranged expression, key and value; empty body).
//
// Unreachable code is still built into blocks; it simply has no path from
// Entry, and the dataflow solvers only visit reachable blocks.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Edge is a directed control-flow edge.
type Edge struct {
	To   *Block
	Cond ast.Expr // leaf branch condition, nil for unconditional edges
	Neg  bool     // edge taken when Cond is false
}

// Block is a basic block: straight-line nodes plus outgoing edges.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []Edge
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	Defers []*ast.DeferStmt // in source order of scheduling
}

// loopCtx tracks break/continue targets for an enclosing loop, switch, or
// select.
type loopCtx struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type builder struct {
	cfg    *CFG
	info   *types.Info // may be nil
	stack  []loopCtx
	labels map[string]*Block
	gotos  []pendingGoto
	// fallTo is the next case block while building a switch case body, so
	// fallthrough has a target.
	fallTo *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG constructs the CFG of a function body. info may be nil; when
// present it resolves which calls never return.
func BuildCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	b := &builder{
		cfg:    &CFG{},
		info:   info,
		labels: make(map[string]*Block),
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	end := b.stmtList(body.List, b.cfg.Entry)
	if end != nil {
		b.edge(end, b.cfg.Exit, nil, false)
	}
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target, nil, false)
		}
	}
	return b.cfg
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block, cond ast.Expr, neg bool) {
	from.Succs = append(from.Succs, Edge{To: to, Cond: cond, Neg: neg})
	to.Preds = append(to.Preds, from)
}

// stmtList builds stmts starting in cur; returns the block where control
// continues, or nil if every path terminated.
func (b *builder) stmtList(stmts []ast.Stmt, cur *Block) *Block {
	for _, s := range stmts {
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt builds one statement. A nil cur means the statement is unreachable;
// it is still built (into a fresh predecessor-less block) so its nodes
// exist in the graph.
func (b *builder) stmt(s ast.Stmt, cur *Block) *Block {
	if cur == nil {
		cur = b.newBlock()
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(s.List, cur)

	case *ast.IfStmt:
		return b.ifStmt(s, cur, "")

	case *ast.ForStmt:
		return b.forStmt(s, cur, "")

	case *ast.RangeStmt:
		return b.rangeStmt(s, cur, "")

	case *ast.SwitchStmt:
		return b.switchStmt(s, cur, "")

	case *ast.TypeSwitchStmt:
		return b.typeSwitchStmt(s, cur, "")

	case *ast.SelectStmt:
		return b.selectStmt(s, cur, "")

	case *ast.LabeledStmt:
		return b.labeledStmt(s, cur)

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.cfg.Exit, nil, false)
		return nil

	case *ast.BranchStmt:
		return b.branchStmt(s, cur)

	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		cur.Nodes = append(cur.Nodes, s)
		return cur

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, s)
		if call, ok := s.X.(*ast.CallExpr); ok && b.neverReturns(call) {
			b.edge(cur, b.cfg.Exit, nil, false)
			return nil
		}
		return cur

	case *ast.EmptyStmt:
		return cur

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, ...
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

func (b *builder) ifStmt(s *ast.IfStmt, cur *Block, label string) *Block {
	if s.Init != nil {
		cur = b.stmt(s.Init, cur)
	}
	then := b.newBlock()
	after := b.newBlock()
	elseTarget := after
	var elseB *Block
	if s.Else != nil {
		elseB = b.newBlock()
		elseTarget = elseB
	}
	b.cond(s.Cond, cur, then, elseTarget)
	if end := b.stmtList(s.Body.List, then); end != nil {
		b.edge(end, after, nil, false)
	}
	if s.Else != nil {
		if end := b.stmt(s.Else, elseB); end != nil {
			b.edge(end, after, nil, false)
		}
	}
	return after
}

// cond decomposes a branch condition through &&, ||, ! and parentheses,
// appending leaf conditions as nodes of the block that evaluates them and
// emitting a true-edge to t and a false-edge to f.
func (b *builder) cond(e ast.Expr, cur *Block, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, cur, t, f)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, cur, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock()
			b.cond(x.X, cur, mid, f)
			b.cond(x.Y, mid, t, f)
			return
		case token.LOR:
			mid := b.newBlock()
			b.cond(x.X, cur, t, mid)
			b.cond(x.Y, mid, t, f)
			return
		}
	}
	cur.Nodes = append(cur.Nodes, e)
	b.edge(cur, t, e, false)
	b.edge(cur, f, e, true)
}

func (b *builder) forStmt(s *ast.ForStmt, cur *Block, label string) *Block {
	if s.Init != nil {
		cur = b.stmt(s.Init, cur)
	}
	head := b.newBlock()
	body := b.newBlock()
	after := b.newBlock()
	b.edge(cur, head, nil, false)

	continueTo := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		continueTo = post
	}

	if s.Cond != nil {
		b.cond(s.Cond, head, body, after)
	} else {
		b.edge(head, body, nil, false)
	}

	b.stack = append(b.stack, loopCtx{label: label, breakTo: after, continueTo: continueTo})
	end := b.stmtList(s.Body.List, body)
	b.stack = b.stack[:len(b.stack)-1]

	if end != nil {
		b.edge(end, continueTo, nil, false)
	}
	if post != nil {
		pend := b.stmt(s.Post, post)
		if pend != nil {
			b.edge(pend, head, nil, false)
		}
	}
	return after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, cur *Block, label string) *Block {
	head := b.newBlock()
	body := b.newBlock()
	after := b.newBlock()
	b.edge(cur, head, nil, false)
	// The head holds a header-only copy of the RangeStmt: the ranged
	// expression and the per-iteration key/value assignment, with the body
	// emptied so the node ends at the body's `{`. The body statements live
	// only in their own blocks.
	hdr := *s
	hdr.Body = &ast.BlockStmt{Lbrace: s.Body.Lbrace}
	head.Nodes = append(head.Nodes, &hdr)
	b.edge(head, body, nil, false)
	b.edge(head, after, nil, false)

	b.stack = append(b.stack, loopCtx{label: label, breakTo: after, continueTo: head})
	end := b.stmtList(s.Body.List, body)
	b.stack = b.stack[:len(b.stack)-1]

	if end != nil {
		b.edge(end, head, nil, false)
	}
	return after
}

// synthEq builds the synthesized `tag == caseExpr` condition carried on
// switch case edges. The operands are the original typechecked
// expressions; the wrapper node is not in types.Info.
func synthEq(tag, caseExpr ast.Expr) ast.Expr {
	return &ast.BinaryExpr{X: tag, Op: token.EQL, Y: caseExpr, OpPos: caseExpr.Pos()}
}

func (b *builder) switchStmt(s *ast.SwitchStmt, cur *Block, label string) *Block {
	if s.Init != nil {
		cur = b.stmt(s.Init, cur)
	}
	if s.Tag != nil {
		cur.Nodes = append(cur.Nodes, s.Tag)
	}
	after := b.newBlock()

	type caseBody struct {
		blk    *Block
		clause *ast.CaseClause
	}
	var cases []caseBody
	hasDefault := false
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		blk := b.newBlock()
		cases = append(cases, caseBody{blk, cc})
		if cc.List == nil {
			hasDefault = true
			b.edge(cur, blk, nil, false)
			continue
		}
		for _, ce := range cc.List {
			// Like an if condition, a case expression is a node of the
			// block that evaluates it as well as the condition of its edge.
			cur.Nodes = append(cur.Nodes, ce)
			switch {
			case s.Tag != nil:
				b.edge(cur, blk, synthEq(s.Tag, ce), false)
			default:
				// switch { case cond: } — the case expression is the
				// condition itself.
				b.edge(cur, blk, ce, false)
			}
		}
	}
	if !hasDefault {
		b.edge(cur, after, nil, false)
	}

	b.stack = append(b.stack, loopCtx{label: label, breakTo: after})
	savedFall := b.fallTo
	for i, c := range cases {
		if i+1 < len(cases) {
			b.fallTo = cases[i+1].blk
		} else {
			b.fallTo = nil
		}
		if end := b.stmtList(c.clause.Body, c.blk); end != nil {
			b.edge(end, after, nil, false)
		}
	}
	b.fallTo = savedFall
	b.stack = b.stack[:len(b.stack)-1]
	return after
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, cur *Block, label string) *Block {
	if s.Init != nil {
		cur = b.stmt(s.Init, cur)
	}
	cur.Nodes = append(cur.Nodes, s.Assign)
	after := b.newBlock()

	hasDefault := false
	b.stack = append(b.stack, loopCtx{label: label, breakTo: after})
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		blk := b.newBlock()
		b.edge(cur, blk, nil, false)
		if cc.List == nil {
			hasDefault = true
		}
		if end := b.stmtList(cc.Body, blk); end != nil {
			b.edge(end, after, nil, false)
		}
	}
	b.stack = b.stack[:len(b.stack)-1]
	if !hasDefault {
		b.edge(cur, after, nil, false)
	}
	return after
}

func (b *builder) selectStmt(s *ast.SelectStmt, cur *Block, label string) *Block {
	after := b.newBlock()
	b.stack = append(b.stack, loopCtx{label: label, breakTo: after})
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		blk := b.newBlock()
		b.edge(cur, blk, nil, false)
		if cc.Comm != nil {
			blk = b.stmt(cc.Comm, blk)
		}
		if end := b.stmtList(cc.Body, blk); end != nil {
			b.edge(end, after, nil, false)
		}
	}
	b.stack = b.stack[:len(b.stack)-1]
	// select{} has no clauses: no successors, control never continues.
	return after
}

func (b *builder) labeledStmt(s *ast.LabeledStmt, cur *Block) *Block {
	name := s.Label.Name
	target := b.newBlock()
	b.edge(cur, target, nil, false)
	b.labels[name] = target
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		return b.forStmt(inner, target, name)
	case *ast.RangeStmt:
		return b.rangeStmt(inner, target, name)
	case *ast.SwitchStmt:
		return b.switchStmt(inner, target, name)
	case *ast.TypeSwitchStmt:
		return b.typeSwitchStmt(inner, target, name)
	case *ast.SelectStmt:
		return b.selectStmt(inner, target, name)
	case *ast.IfStmt:
		return b.ifStmt(inner, target, name)
	default:
		return b.stmt(s.Stmt, target)
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt, cur *Block) *Block {
	switch s.Tok {
	case token.BREAK:
		for i := len(b.stack) - 1; i >= 0; i-- {
			c := b.stack[i]
			if s.Label == nil || c.label == s.Label.Name {
				b.edge(cur, c.breakTo, nil, false)
				return nil
			}
		}
	case token.CONTINUE:
		for i := len(b.stack) - 1; i >= 0; i-- {
			c := b.stack[i]
			if c.continueTo == nil {
				continue // switch/select frames are not continue targets
			}
			if s.Label == nil || c.label == s.Label.Name {
				b.edge(cur, c.continueTo, nil, false)
				return nil
			}
		}
	case token.GOTO:
		if s.Label != nil {
			if target, ok := b.labels[s.Label.Name]; ok {
				b.edge(cur, target, nil, false)
			} else {
				b.gotos = append(b.gotos, pendingGoto{from: cur, label: s.Label.Name})
			}
		}
		return nil
	case token.FALLTHROUGH:
		if b.fallTo != nil {
			b.edge(cur, b.fallTo, nil, false)
		}
		return nil
	}
	return nil
}

// neverReturns reports whether a call provably terminates the flow of the
// enclosing function: the panic builtin, or a stdlib callee the table marks
// as exiting (os.Exit, runtime.Goexit, the log.Fatal family), however its
// package was imported. Without type information only a call named panic
// qualifies.
func (b *builder) neverReturns(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		if b.info == nil {
			return true
		}
		_, isBuiltin := b.info.Uses[id].(*types.Builtin)
		return isBuiltin
	}
	name := funcNameOf(b.info, call.Fun)
	return name != "" && stdCallOf(name).exits
}

// Reachable returns the set of blocks reachable from Entry.
func (g *CFG) Reachable() map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, e := range b.Succs {
			walk(e.To)
		}
	}
	walk(g.Entry)
	return seen
}

// ExitReachable reports whether the synthetic Exit block is reachable from
// Entry — i.e. whether the function has any terminating path.
func (g *CFG) ExitReachable() bool {
	return g.Reachable()[g.Exit]
}
