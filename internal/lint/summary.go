package lint

// Function summaries. A Program owns the call graph of callgraph.go plus one
// Summary per function node, computed once from that function's own body:
// an effect mask (allocates / reads the wall clock / blocks / mutates
// receiver or parameter state / global effect / unresolvable call) with the
// sites behind it, the receiver mutexes it unlocks on net, its parameter and
// receiver escapes, and the site table (channel operations, goroutine
// hand-offs, non-local stores) that lockcheck and sharecheck read too. Only
// the blocks of the function's CFG reachable from entry are read, so effects
// in unreachable code (after return/panic, or pruned by the CFG builder)
// never enter a summary.
//
// Nothing is folded up the call graph. A consumer reads a module callee's
// summary at the call site, one hop deep; where one hop is not enough, a
// directive stands in for the callee (//rexlint:noalloc, //rexlint:pure:
// a callee that carries it is checked on its own).
//
// Two deliberate scope decisions, shared by every consumer:
//
//   - Debug-assertion blocks guarded by a named boolean constant
//     (`if cluster.DebugAsserts { ... }`) are folded away regardless of
//     the constant's build-tag value: production builds compile them out,
//     and folding keeps default and -tags debugasserts lint runs in
//     agreement.
//   - A `//rexlint:ignore <analyzer> <reason>` on a leaf site keeps the
//     waived effect out of the summary, so callers reading it one hop deep
//     are not re-flagged for a site a reviewer already accepted.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Effect bits of a summary mask.
const (
	// EffAlloc: some reachable path allocates (make, literal, append
	// growth, closure or interface boxing, goroutine spawn, ...).
	EffAlloc uint16 = 1 << iota
	// EffClock: reads or waits on the ambient wall clock.
	EffClock
	// EffBlock: may block the calling goroutine (a blocking channel site
	// of the site table, range over a channel, WaitGroup.Wait, time.Sleep).
	// Mutex Lock is policed by lockcheck's ordering rules instead and
	// deliberately excluded.
	EffBlock
	// EffGlobal: observable effect beyond receiver/parameters — writes
	// package-level state, spawns goroutines, captured-variable writes,
	// or calls into stdlib with unknown effects.
	EffGlobal
	// EffReadsRecv / EffMutatesRecv: receiver access classification.
	EffReadsRecv
	EffMutatesRecv
	// EffMutatesParam: writes through a pointer/slice/map parameter.
	EffMutatesParam
	// EffUnknown: contains a dynamic call with no resolvable target (a call
	// through a func value or an interface), so nothing can be proven about
	// it.
	EffUnknown
)

// effect is one site behind an effect bit: where it is and what it is
// ("make", "time.Now", "channel send", ...).
type effect struct {
	bit  uint16
	pos  token.Pos
	what string
	// via is the call a module callee's own site enters the caller through,
	// when the effect is read one hop deep; nil for the function's own site.
	via *CallSite
}

// at is where the effect enters the function: its own site, or the call.
func (e *effect) at() token.Pos {
	if e.via != nil {
		return e.via.Pos
	}
	return e.pos
}

// chain renders " (via callee)" for a callee's site, or "" (also for nil).
func (e *effect) chain() string {
	if e == nil || e.via == nil {
		return ""
	}
	return " (via " + e.via.Callee.Name() + ")"
}

// firstOf returns the first effect with the bit, or nil.
func firstOf(es []effect, bit uint16) *effect {
	for i := range es {
		if es[i].bit == bit {
			return &es[i]
		}
	}
	return nil
}

// Summary holds one function node's own facts.
type Summary struct {
	Mask uint16
	// effects are the sites behind Mask in the order the summary reads
	// them: the body's own sites by position, then each call's stdlib
	// callee or unresolvable target.
	effects []effect

	// UnlockFields are receiver mutex field paths ("mu") the function
	// unlocks without acquiring them itself. Sorted.
	UnlockFields []string

	// ParamEscape describes, per parameter (parallel to FuncNode.Params),
	// how the parameter value escapes its caller's ownership ("" = does not
	// escape): stored into non-local state, sent on a channel, or captured
	// by a goroutine. Nil while no parameter escapes.
	ParamEscape []string
	// RecvEscape is the same fact for the receiver.
	RecvEscape string

	// calls are the call sites that survive reachability and debug-guard
	// folding.
	calls []CallSite
	// locked are receiver mutex fields the body acquires itself;
	// lockcheck's self-deadlock check reads them.
	locked map[string]bool
	// sites is the site table, sorted by position.
	sites []site
}

// Program is the substrate every analyzer reads, built once per lint run
// over every loaded package: the call graph's function nodes, one CFG per
// node, each package's line-level waivers, and one Summary per node.
type Program struct {
	Pkgs []*Package

	graph     *callGraph
	cfgs      map[*FuncNode]*CFG
	summaries map[*FuncNode]*Summary
	nodesExpr map[*Package][]*FuncNode
	waivers   map[*Package]*lineDirectives
	owned     map[*types.TypeName]bool
	// nonneg maps each //rexlint:nonneg field to whether it is an
	// integer (nonneg.go).
	nonneg map[*types.Var]bool
}

// NewProgram builds the call graph and every function summary. Analyzer
// scope does not matter here: summaries cover the whole package set so a
// callee in another package can be read at its call sites.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:      pkgs,
		graph:     buildCallGraph(pkgs),
		cfgs:      make(map[*FuncNode]*CFG),
		summaries: make(map[*FuncNode]*Summary),
		nodesExpr: make(map[*Package][]*FuncNode),
		waivers:   make(map[*Package]*lineDirectives),
		owned:     make(map[*types.TypeName]bool),
	}
	for _, pkg := range pkgs {
		collectOwnedTypes(pkg, p.owned)
	}
	p.nonneg = collectNonnegFields(pkgs)
	for _, n := range p.graph.nodes {
		p.nodesExpr[n.Pkg] = append(p.nodesExpr[n.Pkg], n)
		p.summaries[n] = summarize(p, n)
	}
	return p
}

// waiversFor returns the package's line-level waiver index, built on first
// use.
func (p *Program) waiversFor(pkg *Package) *lineDirectives {
	s, ok := p.waivers[pkg]
	if !ok {
		s = buildLineDirectives(pkg.Fset, pkg.Files)
		p.waivers[pkg] = s
	}
	return s
}

// CFG returns n's control-flow graph, built on first use and shared by
// every analysis of the run.
func (p *Program) CFG(n *FuncNode) *CFG {
	g, ok := p.cfgs[n]
	if !ok {
		g = BuildCFG(n.Body, n.Pkg.Info)
		p.cfgs[n] = g
	}
	return g
}

// NodesOf returns pkg's function nodes in source order.
func (p *Program) NodesOf(pkg *Package) []*FuncNode {
	return p.nodesExpr[pkg]
}

// NodeOf returns the node of a declared function, or nil.
func (p *Program) NodeOf(fn *types.Func) *FuncNode { return p.graph.byFunc[fn] }

// SiteAt returns the resolved call site of a call expression, or nil for
// builtins, conversions and calls with nothing to resolve.
func (p *Program) SiteAt(call *ast.CallExpr) *CallSite { return p.graph.siteAt[call] }

// EffectiveCalls returns n's call sites that survive CFG reachability and
// debug-guard folding — the sites its summary was computed from.
func (p *Program) EffectiveCalls(n *FuncNode) []CallSite { return p.summaries[n].calls }

// SummaryOf returns the node's summary.
func (p *Program) SummaryOf(n *FuncNode) *Summary { return p.summaries[n] }

// OwnedTypeName reports the qualified name of t's named type when it is
// declared //rexlint:owned (pointers are dereferenced), or "".
func (p *Program) OwnedTypeName(t types.Type) string {
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	tn := named.Obj()
	if !p.owned[tn] {
		return ""
	}
	if tn.Pkg() != nil {
		return tn.Pkg().Name() + "." + tn.Name()
	}
	return tn.Name()
}

// collectOwnedTypes records named types whose declaration doc carries
// //rexlint:owned.
func collectOwnedTypes(pkg *Package, out map[*types.TypeName]bool) {
	hasOwned := func(doc *ast.CommentGroup) bool { return len(groupDirective(doc, "owned")) > 0 }
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !hasOwned(ts.Doc) && !(len(gd.Specs) == 1 && hasOwned(gd.Doc)) {
					continue
				}
				if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
					out[tn] = true
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Local stage: one function's own facts over its reachable CFG blocks.

// summarize builds one node's summary: effect sites, the site table and the
// surviving call sites, harvested from the CFG blocks reachable from entry
// in block order, so nothing from unreachable code enters it.
func summarize(p *Program, n *FuncNode) *Summary {
	s := &Summary{}
	cls := newNodeClassifier(p, n)
	g := p.CFG(n)
	reach := g.Reachable()
	var reachSpans []posRange
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		for _, node := range b.Nodes {
			reachSpans = append(reachSpans, posRange{node.Pos(), node.End()})
			cls.walkEffects(node, func(bit uint16, pos token.Pos, what string) {
				s.effects = append(s.effects, effect{bit: bit, pos: pos, what: what})
			})
			cls.collectSites(node, s)
		}
	}
	sort.SliceStable(s.sites, func(i, j int) bool { return s.sites[i].pos < s.sites[j].pos })
	for _, st := range s.sites {
		if st.blocks && !p.waivedAt(n, "lockcheck", st.op) {
			s.effects = append(s.effects, effect{bit: EffBlock, pos: st.op, what: st.opName()})
		}
		if id, ok := ast.Unparen(st.value).(*ast.Ident); ok {
			s.markEscape(n, rootObject(n.Pkg.Info, id), st.how)
		}
	}
	sort.Slice(s.effects, func(i, j int) bool { return s.effects[i].pos < s.effects[j].pos })

	// Call sites survive if reachable and not inside a folded debug guard.
	var unlocks []string
	for _, site := range n.Calls {
		if !inRanges(reachSpans, site.Pos) || cls.guarded(site.Pos) {
			continue
		}
		s.calls = append(s.calls, site)
		if site.Unknown {
			s.effects = append(s.effects,
				effect{bit: EffUnknown, pos: site.Pos, what: "dynamic call with no resolvable target"},
				effect{bit: EffGlobal, pos: site.Pos})
		}
		mask := site.std().mask
		if mask&EffClock != 0 && (n.ClockExempt || p.waivedAt(n, "clockpurity", site.Pos)) {
			mask &^= EffClock
		}
		if mask&EffAlloc != 0 && p.waivedAt(n, "alloccheck", site.Pos) {
			mask &^= EffAlloc
		}
		if site.Async {
			mask &^= EffBlock
		}
		for _, bit := range []uint16{EffAlloc, EffClock, EffBlock, EffGlobal, EffMutatesParam} {
			if mask&bit != 0 {
				s.effects = append(s.effects, effect{bit: bit, pos: site.Pos, what: site.Std})
			}
		}
		// Receiver mutexes the call releases or acquires, by the lock role
		// of its stdlib callee.
		role := site.std().lock
		if role == lockNone || n.Recv == nil || rootObject(n.Pkg.Info, site.RecvExpr) != n.Recv {
			continue
		}
		field := "" // receiver itself is the mutex
		if _, f, ok := strings.Cut(renderPath(site.RecvExpr), "."); ok {
			field = f
		}
		if role == lockRelease {
			unlocks = append(unlocks, field)
		} else {
			if s.locked == nil {
				s.locked = make(map[string]bool)
			}
			s.locked[field] = true
		}
	}
	for _, e := range s.effects {
		s.Mask |= e.bit
	}
	// An unlock balanced by a local acquisition is not a net unlock: a
	// caller's held fact survives the call.
	for _, u := range unlocks {
		if !s.locked[u] {
			s.UnlockFields = append(s.UnlockFields, u)
		}
	}
	sort.Strings(s.UnlockFields)
	s.UnlockFields = slices.Compact(s.UnlockFields)
	return s
}

// markEscape records an escape fact for the node's receiver or one of its
// parameters; the first escape of each wins.
func (s *Summary) markEscape(n *FuncNode, obj types.Object, how string) {
	if obj == nil {
		return
	}
	if obj == n.Recv && s.RecvEscape == "" {
		s.RecvEscape = how
		return
	}
	for i, pr := range n.Params {
		if pr != nil && obj == pr {
			if s.ParamEscape == nil {
				s.ParamEscape = make([]string, len(n.Params))
			}
			if s.ParamEscape[i] == "" {
				s.ParamEscape[i] = how
			}
		}
	}
}

type posRange struct{ lo, hi token.Pos }

// inRanges reports whether pos lies inside one of the half-open ranges.
func inRanges(ranges []posRange, pos token.Pos) bool {
	for _, r := range ranges {
		if pos >= r.lo && pos < r.hi {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Node-level effect classification.

// nodeClassifier computes the effect sites of single straight-line CFG
// nodes for one function, honoring debug-guard folding and leaf-site ignore
// waivers.
type nodeClassifier struct {
	prog *Program
	node *FuncNode
	info *types.Info
	// guards are if-bodies controlled by a named boolean constant.
	guards []posRange
	// nonBlocking are the comm statements of selects that have a default
	// clause: the channel operation in one of them cannot block.
	nonBlocking map[ast.Node]bool
}

func newNodeClassifier(p *Program, n *FuncNode) *nodeClassifier {
	c := &nodeClassifier{prog: p, node: n, info: n.Pkg.Info, nonBlocking: map[ast.Node]bool{}}
	inspectShallow(n.Body, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.IfStmt:
			if constBoolGuard(c.info, s.Cond) {
				c.guards = append(c.guards, posRange{s.Body.Pos(), s.Body.End()})
			}
		case *ast.SelectStmt:
			if selectHasDefault(s) {
				for _, clause := range s.Body.List {
					if comm := clause.(*ast.CommClause).Comm; comm != nil {
						c.nonBlocking[comm] = true
					}
				}
			}
		}
		return true
	})
	return c
}

// constBoolGuard reports whether cond is a plain named boolean constant
// (`DebugAsserts`, `cluster.DebugAsserts`): the debug-assertion idiom whose
// body is folded out of summaries.
func constBoolGuard(info *types.Info, cond ast.Expr) bool {
	switch x := ast.Unparen(cond).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		tv, ok := info.Types[x.(ast.Expr)]
		return ok && tv.Value != nil && tv.Value.Kind() == constant.Bool
	}
	return false
}

// guarded reports whether pos lies inside a folded debug-assertion block.
func (c *nodeClassifier) guarded(pos token.Pos) bool { return inRanges(c.guards, pos) }

// walkEffects visits one straight-line node and emits its local effects.
func (c *nodeClassifier) walkEffects(n ast.Node, emit func(bit uint16, pos token.Pos, what string)) {
	info := c.info
	writes := c.writeTargets(n)
	// invoked is the literal a call invokes in place: a call's Fun is its
	// first child, so the walk reaches that literal right after the call.
	var invoked *ast.FuncLit
	inspectShallow(n, func(x ast.Node) bool {
		if x == nil || c.guarded(x.Pos()) {
			return x == nil
		}
		switch s := x.(type) {
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(s.Fun).(*ast.FuncLit); ok {
				invoked = lit
			}
			c.callEffects(s, emit)
		case *ast.FuncLit:
			// A literal that captures variables allocates its closure
			// unless the call containing it invokes it in place.
			if s != invoked && len(c.capturedIdents(s)) > 0 {
				c.alloc(emit, s.Pos(), "func literal captures variables")
			}
		case *ast.CompositeLit:
			switch info.TypeOf(s).Underlying().(type) {
			case *types.Slice:
				c.alloc(emit, s.Pos(), "slice literal")
			case *types.Map:
				c.alloc(emit, s.Pos(), "map literal")
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				if _, ok := ast.Unparen(s.X).(*ast.CompositeLit); ok {
					c.alloc(emit, s.Pos(), "&composite literal")
				}
			}
		case *ast.BinaryExpr:
			if s.Op == token.ADD && isNonConstString(info, s) {
				c.alloc(emit, s.Pos(), "string concatenation")
			}
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(s.X).Underlying().(*types.Chan); ok && !c.prog.waivedAt(c.node, "lockcheck", s.For) {
				emit(EffBlock, s.For, "range over channel")
			}
		case *ast.GoStmt:
			c.alloc(emit, s.Pos(), "go statement (goroutine spawn)")
			emit(EffGlobal, s.Pos(), "go statement")
		}
		return true
	})
	// Writes: classify each written root object.
	for _, w := range writes {
		if c.guarded(w.pos) {
			continue
		}
		switch classifyForNode(c.node, w.root) {
		case rootGlobal:
			emit(EffGlobal, w.pos, "writes package-level "+w.root.Name())
		case rootCaptured:
			emit(EffGlobal, w.pos, "writes captured variable "+w.root.Name())
		case rootRecv:
			if w.deep {
				emit(EffMutatesRecv, w.pos, "writes receiver state")
			}
		case rootParam:
			if w.deep {
				emit(EffMutatesParam, w.pos, "writes through parameter "+w.root.Name())
			}
		}
	}
	// Receiver reads.
	if c.node.Recv != nil {
		inspectShallow(n, func(x ast.Node) bool {
			sel, ok := x.(*ast.SelectorExpr)
			if !ok || c.guarded(sel.Pos()) {
				return true
			}
			if rootObject(info, sel) == c.node.Recv {
				emit(EffReadsRecv, sel.Pos(), "reads receiver state")
			}
			return true
		})
	}
}

func (c *nodeClassifier) alloc(emit func(uint16, token.Pos, string), pos token.Pos, what string) {
	if c.prog.waivedAt(c.node, "alloccheck", pos) {
		return
	}
	emit(EffAlloc, pos, what)
}

// callEffects classifies one call expression: builtins, conversions, and
// interface-boxing argument passing. Stdlib callees, clock reads among
// them, are classified from the call sites (stdCallOf), and module-local
// callees are read by the consumers at the call, so this handles only
// syntax-local effects.
func (c *nodeClassifier) callEffects(call *ast.CallExpr, emit func(uint16, token.Pos, string)) {
	info := c.info
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "make":
				c.alloc(emit, call.Pos(), "make")
			case "new":
				c.alloc(emit, call.Pos(), "new")
			case "append":
				c.alloc(emit, call.Pos(), "append may grow its backing array")
			}
			return
		}
		if _, isT := info.Uses[id].(*types.TypeName); isT {
			c.conversionEffects(call, emit)
			return
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if _, isT := info.Uses[sel.Sel].(*types.TypeName); isT {
			c.conversionEffects(call, emit)
			return
		}
	}
	c.boxingEffects(call, emit)
}

// conversionEffects flags converting between string and byte/rune slices —
// the conversions that copy.
func (c *nodeClassifier) conversionEffects(call *ast.CallExpr, emit func(uint16, token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	info := c.info
	dst := info.TypeOf(call.Fun)
	if dst == nil {
		return
	}
	// Conversion type expressions carry the *type* as their TypeOf.
	src := info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	dstU, srcU := dst.Underlying(), src.Underlying()
	if isString(dstU) && isByteOrRuneSlice(srcU) {
		c.alloc(emit, call.Pos(), "string(...) conversion copies")
	}
	if isByteOrRuneSlice(dstU) && isString(srcU) {
		c.alloc(emit, call.Pos(), "[]byte/[]rune(...) conversion copies")
	}
	if _, isIface := dstU.(*types.Interface); isIface && boxes(info, call.Args[0]) {
		c.alloc(emit, call.Pos(), "interface conversion boxes "+src.String())
	}
}

// boxingEffects flags concrete non-pointer-shaped values passed to
// interface-typed parameters: the conversion heap-allocates the box.
func (c *nodeClassifier) boxingEffects(call *ast.CallExpr, emit func(uint16, token.Pos, string)) {
	sig, ok := c.info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() == 0 {
				continue
			}
			slice, okS := params.At(params.Len() - 1).Type().(*types.Slice)
			if !okS {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if boxes(c.info, arg) {
			c.alloc(emit, arg.Pos(), "interface argument boxes "+c.info.TypeOf(arg).String())
		}
	}
}

// boxes reports whether passing e into an interface heap-allocates: its
// static type is concrete and not pointer-shaped, and it is not nil, not a
// small-integer constant (runtime-cached), and not zero-sized.
func boxes(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.IsNil() {
		return false
	}
	if tv.Value != nil && tv.Value.Kind() == constant.Int {
		if v, exact := constant.Int64Val(tv.Value); exact && v >= 0 && v <= 255 {
			return false // runtime staticuint64s cache
		}
	}
	t := tv.Type
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Interface:
		return false // interface-to-interface: no new box
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored directly in the iface word
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil {
			return false
		}
	case *types.Struct:
		if u.NumFields() == 0 {
			return false // zero-sized
		}
	case *types.Array:
		if u.Len() == 0 {
			return false
		}
	}
	return true
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isNonConstString(info *types.Info, b *ast.BinaryExpr) bool {
	tv, ok := info.Types[b]
	if !ok || !isString(tv.Type.Underlying()) {
		return false
	}
	return tv.Value == nil // constant concatenation folds at compile time
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, clause := range s.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// writeTarget is one written lvalue: its root object and whether the write
// goes through a deref/field/index (deep — visible to the caller for
// pointer-shaped roots) or rebinds the name itself.
type writeTarget struct {
	root types.Object
	pos  token.Pos
	deep bool
}

// writeTargets collects the written roots of one straight-line node.
func (c *nodeClassifier) writeTargets(n ast.Node) []writeTarget {
	var out []writeTarget
	record := func(e ast.Expr) {
		e = ast.Unparen(e)
		deep := false
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				// Selecting through a pointer or naming a field both count
				// as deep writes; writing a plain local struct var's field
				// is caller-invisible, filtered by classifyForNode+deep
				// rules below (value receivers/params are copies, but a
				// deep write through them is still conservatively deep —
				// pointer receivers are the norm in this module).
				e, deep = x.X, true
				continue
			case *ast.StarExpr:
				e, deep = x.X, true
				continue
			case *ast.IndexExpr:
				e, deep = x.X, true
				continue
			}
			break
		}
		if id, ok := e.(*ast.Ident); ok {
			obj := c.info.Uses[id]
			if obj == nil {
				obj = c.info.Defs[id]
			}
			if obj != nil {
				out = append(out, writeTarget{root: obj, pos: id.Pos(), deep: deep})
			}
		}
	}
	inspectShallow(n, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(s.X)
		}
		return true
	})
	return out
}

type rootClass int

const (
	rootLocal rootClass = iota
	rootRecv
	rootParam
	rootGlobal
	rootCaptured
)

// ---------------------------------------------------------------------------
// Site table.

// siteKind classifies one entry of the site table.
type siteKind uint8

const (
	// siteRecv is a channel receive.
	siteRecv siteKind = iota
	// siteSend is a channel send of value.
	siteSend
	// siteGo hands value to a goroutine: a go-statement argument, or the
	// first use of a variable the goroutine's literal captures.
	siteGo
	// siteGlobal stores value into package-level state.
	siteGlobal
	// siteOwner stores or appends value into a structure rooted at the
	// receiver, a parameter, a captured variable or a package-level
	// container: a second owner.
	siteOwner
)

// site is one entry of a function's site table: a channel operation, a
// goroutine hand-off, or a store into non-local state. The table is the one
// classification of this syntax; three readers share it: the summary
// (EffBlock events, ParamEscape/RecvEscape facts), lockcheck (blocking under
// a must-held lock) and sharecheck (owned-value escapes). Its rules:
//
//   - only CFG nodes reachable from entry are read, and folded debug
//     guards are skipped, like every other local fact;
//   - a site belongs to the one CFG node it is found in (no node holds
//     another's syntax, cfg.go);
//   - a send or receive in a comm clause of a select that has a default
//     clause does not block; every other send and receive may;
//   - waivers are not applied here: each reader checks its own.
type site struct {
	kind siteKind
	node ast.Node // the CFG node holding the site
	// pos is where an escape is reported: the statement, or the argument
	// of an append. op is where blocking is reported: the channel operator.
	pos, op token.Pos
	value   ast.Expr // the value handed off; nil for a receive
	how     string   // how value escapes ("sent on a channel", ...)
	blocks  bool
}

// opName names a channel site's operation in Block traces and diagnostics.
func (s *site) opName() string {
	if s.kind == siteSend {
		return "channel send"
	}
	return "channel receive"
}

// collectSites appends the site-table entries of one reachable CFG node.
func (c *nodeClassifier) collectSites(n ast.Node, sum *Summary) {
	add := func(kind siteKind, pos token.Pos, value ast.Expr, how string) {
		sum.sites = append(sum.sites, site{kind: kind, node: n, pos: pos, op: pos, value: value, how: how})
	}
	inspectShallow(n, func(x ast.Node) bool {
		if x == nil || c.guarded(x.Pos()) {
			return x == nil
		}
		switch s := x.(type) {
		case *ast.SendStmt:
			sum.sites = append(sum.sites, site{kind: siteSend, node: n, pos: s.Pos(), op: s.Arrow,
				value: s.Value, how: "sent on a channel", blocks: !c.nonBlocking[n]})
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				sum.sites = append(sum.sites, site{kind: siteRecv, node: n, pos: s.OpPos, op: s.OpPos, blocks: !c.nonBlocking[n]})
			}
		case *ast.GoStmt:
			for _, arg := range s.Call.Args {
				add(siteGo, s.Pos(), arg, "passed to a goroutine")
			}
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				for _, id := range c.capturedIdents(lit) {
					add(siteGo, s.Pos(), id, "captured by a goroutine")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if i >= len(s.Rhs) {
					break
				}
				deepStore := false
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					deepStore = true
				}
				switch classifyForNode(c.node, rootObject(c.info, lhs)) {
				case rootGlobal:
					add(siteGlobal, s.Pos(), s.Rhs[i], "stored in package-level state")
				case rootRecv, rootParam, rootCaptured:
					if deepStore {
						add(siteOwner, s.Pos(), s.Rhs[i], "stored into "+renderPath(lhs))
					}
				}
			}
		case *ast.CallExpr:
			if !isBuiltinCall(c.info, s, "append") || len(s.Args) < 2 ||
				classifyForNode(c.node, rootObject(c.info, s.Args[0])) == rootLocal {
				break
			}
			for _, arg := range s.Args[1:] {
				add(siteOwner, arg.Pos(), arg, "appended to "+renderPath(s.Args[0]))
			}
		}
		return true
	})
}

// capturedIdents returns, for each variable lit captures from an enclosing
// function, its first use in lit's body: the goroutine hand-offs of the
// site table, and the free variables that make lit a heap closure unless
// it is invoked in place.
func (c *nodeClassifier) capturedIdents(lit *ast.FuncLit) []*ast.Ident {
	var out []*ast.Ident
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level, not a capture
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			seen[v] = true
			out = append(out, id)
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// Stdlib table.

// lockRole is what a stdlib call does to the mutex it is called on.
type lockRole uint8

const (
	lockNone lockRole = iota
	lockAcquire
	lockAcquireRead
	lockRelease
)

// orderRole is what a stdlib call does to detflow's order taint.
type orderRole uint8

const (
	// orderNone: the result carries no order taint.
	orderNone orderRole = iota
	// orderSource: the result is ordered by map iteration.
	orderSource
	// orderSanitize: the call sorts its arguments; its result is clean.
	orderSanitize
	// orderKeep: the result keeps its arguments' order taint (formatting
	// and conversion).
	orderKeep
)

// stdCall is one entry of the stdlib table: the callee's effect mask, its
// mutex role, whether it never returns, and its role for detflow's order
// taint.
type stdCall struct {
	mask  uint16
	lock  lockRole
	exits bool
	order orderRole
}

// stdDefault is the mask of a stdlib callee the table does not classify.
const stdDefault = EffAlloc | EffGlobal

// stdCalls is the one classification of stdlib callees, keyed by the
// qualified name a CallSite records in Std. Its readers: the summary's
// effect bits, lockcheck's lock transfer and blocking check, clockpurity's
// direct and stored-value checks, sharecheck's retention rule, the CFG's
// never-returning calls, and detflow's and maporder's order taint.
// Entries absent from the table and not matched by a prefix rule default
// to stdDefault: safe for noalloc/purity, and deliberately free of
// Clock/Block so stdlib use does not trip the clock or lock analyzers
// without evidence.
var stdCalls = map[string]stdCall{
	"time.Now":   {mask: EffClock},
	"time.Since": {mask: EffClock},
	"time.Until": {mask: EffClock},
	"time.Sleep": {mask: EffClock | EffBlock},

	"time.After":     {mask: EffClock | EffAlloc | EffGlobal},
	"time.Tick":      {mask: EffClock | EffAlloc | EffGlobal},
	"time.NewTimer":  {mask: EffClock | EffAlloc | EffGlobal},
	"time.NewTicker": {mask: EffClock | EffAlloc | EffGlobal},
	"time.AfterFunc": {mask: EffClock | EffAlloc | EffGlobal},

	"(sync.Mutex).Lock":      {lock: lockAcquire},
	"(sync.Mutex).Unlock":    {lock: lockRelease},
	"(sync.Mutex).TryLock":   {},
	"(sync.RWMutex).Lock":    {lock: lockAcquire},
	"(sync.RWMutex).Unlock":  {lock: lockRelease},
	"(sync.RWMutex).RLock":   {lock: lockAcquireRead},
	"(sync.RWMutex).RUnlock": {lock: lockRelease},
	"(sync.WaitGroup).Add":   {},
	"(sync.WaitGroup).Done":  {},
	"(sync.WaitGroup).Wait":  {mask: EffBlock},

	"sort.Search": {order: orderSanitize},
	"sort.Sort":   {order: orderSanitize},
	"sort.Stable": {order: orderSanitize},

	"maps.Keys":   {mask: stdDefault, order: orderSource},
	"maps.Values": {mask: stdDefault, order: orderSource},
	"maps.All":    {mask: stdDefault, order: orderSource},

	"os.Exit":        {mask: stdDefault, exits: true},
	"runtime.Goexit": {mask: stdDefault, exits: true},
	"log.Fatal":      {mask: stdDefault, exits: true},
	"log.Fatalf":     {mask: stdDefault, exits: true},
	"log.Fatalln":    {mask: stdDefault, exits: true},

	"errors.New":  {mask: EffAlloc},
	"fmt.Errorf":  {mask: EffAlloc, order: orderKeep},
	"fmt.Sprintf": {mask: EffAlloc, order: orderKeep},
}

// stdCallOf classifies one stdlib callee: its table entry, else a prefix
// rule, else the default.
func stdCallOf(name string) stdCall {
	if c, ok := stdCalls[name]; ok {
		return c
	}
	switch {
	case strings.HasPrefix(name, "math."): // math only; math/rand has its own prefix
		return stdCall{}
	case strings.HasPrefix(name, "sync/atomic."):
		return stdCall{mask: EffMutatesParam}
	case strings.HasPrefix(name, "(time.Time)."),
		strings.HasPrefix(name, "(time.Duration)."):
		return stdCall{}
	case strings.HasPrefix(name, "sort."), strings.HasPrefix(name, "slices."):
		return stdCall{mask: stdDefault, order: orderSanitize}
	case strings.HasPrefix(name, "fmt."), strings.HasPrefix(name, "strings."),
		strings.HasPrefix(name, "strconv."), strings.HasPrefix(name, "bytes."):
		return stdCall{mask: stdDefault, order: orderKeep}
	}
	return stdCall{mask: stdDefault}
}

// std classifies the site's stdlib callee; the zero stdCall for a nil site
// or a site without one.
func (s *CallSite) std() stdCall {
	if s == nil || s.Std == "" {
		return stdCall{}
	}
	return stdCallOf(s.Std)
}

// stdWith returns the site's stdlib callee when its table mask has one of
// bits, or "" (also for a nil site).
func (s *CallSite) stdWith(bits uint16) string {
	if s.std().mask&bits != 0 {
		return s.Std
	}
	return ""
}

// waivedAt reports whether a line-level ignore for the analyzer covers pos
// in n, marking it used. A waived effect stays out of n's summary, so
// callers reading it are not flagged either; marking the entry used there is
// deliberate: a waiver consumed by the summary layer is doing work even if
// the analyzer itself never fires at that line.
func (p *Program) waivedAt(n *FuncNode, analyzer string, pos token.Pos) bool {
	return p.waiversFor(n.Pkg).covers(analyzer, n.Pkg.Fset.Position(pos))
}

// classifyForNode places a root object relative to the function n: its
// receiver, one of its parameters, a package-level variable, a variable
// captured from an enclosing function, or a plain local.
func classifyForNode(n *FuncNode, obj types.Object) rootClass {
	if obj == nil {
		return rootLocal
	}
	if obj == n.Recv {
		return rootRecv
	}
	for _, p := range n.Params {
		if p != nil && obj == p {
			return rootParam
		}
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return rootLocal
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return rootGlobal
	}
	// Declared outside this node's body (and not receiver/param): a
	// captured variable of an enclosing function.
	if n.Lit != nil && (v.Pos() < n.Lit.Pos() || v.Pos() >= n.Lit.End()) {
		return rootCaptured
	}
	return rootLocal
}

// ---------------------------------------------------------------------------
// One hop: a directive function's callees, read at the call.

// oneHop reads what a function that carries a directive is held to: its own
// effects, then, call by call, each module callee's own effects mapped onto
// it at the call. A literal the function creates is its own code, so the
// literal's calls are read as the function's. A callee for which trusted
// holds carries the same directive and is checked on its own, so it is
// skipped. deep lists, once per callee, the calls of the other callees that
// call module functions themselves: what those reach lies past the one hop.
func (p *Program) oneHop(n *FuncNode, trusted func(*FuncNode) bool) (effs []effect, deep []*CallSite) {
	effs = slices.Clone(p.summaries[n].effects)
	seen := map[*FuncNode]bool{}
	var walk func(caller *FuncNode)
	walk = func(caller *FuncNode) {
		calls := p.summaries[caller].calls
		for i := range calls {
			site := &calls[i]
			callee := site.Callee
			if callee == nil || trusted(callee) {
				continue
			}
			effs = append(effs, p.hopEffects(caller, site)...)
			if seen[callee] {
				continue
			}
			seen[callee] = true
			if callee.Lit != nil {
				walk(callee)
			} else if slices.ContainsFunc(p.EffectiveCalls(callee), func(s CallSite) bool { return s.Callee != nil }) {
				deep = append(deep, site)
			}
		}
	}
	walk(n)
	return effs, deep
}

// hopEffects maps a module callee's own effects onto the caller n at one
// call: receiver and parameter effects follow the call's receiver and
// argument operands, and a waiver at the call, a go statement, or n's Clock
// exemption drops the bit it covers.
func (p *Program) hopEffects(n *FuncNode, site *CallSite) []effect {
	callee := site.Callee
	cs := p.summaries[callee]
	info := n.Pkg.Info
	var out []effect
	add := func(bit uint16) {
		e := effect{bit: bit, pos: site.Pos}
		if own := firstOf(cs.effects, bit); own != nil {
			e = *own
		}
		e.via = site
		out = append(out, e)
	}
	mapped := func(obj types.Object) {
		switch classifyForNode(n, obj) {
		case rootRecv:
			add(EffMutatesRecv)
		case rootParam:
			add(EffMutatesParam)
		case rootGlobal, rootCaptured:
			add(EffGlobal)
		}
	}
	if cs.Mask&EffAlloc != 0 && !p.waivedAt(n, "alloccheck", site.Pos) {
		add(EffAlloc)
	}
	if cs.Mask&EffClock != 0 && !n.ClockExempt && !p.waivedAt(n, "clockpurity", site.Pos) {
		add(EffClock)
	}
	if cs.Mask&EffBlock != 0 && !site.Async && !p.waivedAt(n, "lockcheck", site.Pos) {
		add(EffBlock)
	}
	for _, bit := range []uint16{EffUnknown, EffGlobal} {
		if cs.Mask&bit != 0 {
			add(bit)
		}
	}
	if cs.Mask&EffMutatesRecv != 0 {
		mapped(rootObject(info, site.RecvExpr))
	}
	if cs.Mask&EffReadsRecv != 0 && classifyForNode(n, rootObject(info, site.RecvExpr)) == rootRecv {
		add(EffReadsRecv)
	}
	if cs.Mask&EffMutatesParam != 0 && site.Call != nil {
		for i := range callee.Params {
			if i < len(site.Call.Args) {
				mapped(rootObject(info, site.Call.Args[i]))
			}
		}
	}
	return out
}
