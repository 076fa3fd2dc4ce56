package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LockCheck enforces the `// guarded by: mu` annotation convention with a
// CFG-based must-held/may-held mutex analysis:
//
//   - a read or write of an annotated struct field is flagged unless the
//     named sibling mutex is held on EVERY path reaching the access
//     (must-held, intersection join);
//   - a Lock() that MAY still be held at a return or explicit panic, with
//     no deferred Unlock scheduled on that path, is flagged at the Lock
//     site (may-held, union join);
//   - blocking operations under a held lock are flagged: the blocking
//     channel sites of the summary's site table (summary.go; a send or
//     receive in a select with a default clause does not block), calls
//     whose stdlib callee the stdlib table marks EffBlock (WaitGroup.Wait,
//     time.Sleep), calls to callees whose summary may block, and calls to
//     same-package methods that acquire the mutex already held
//     (self-deadlock, detected via the receiver mutexes the callee's local
//     summary facts say it acquires).
//
// Which calls lock and unlock is read off each call's resolved site and the
// lock role of its stdlib callee in the table, so a method promoted from
// an embedded sync.Mutex counts like one called on a mutex field.
//
// Locals initialized from a composite literal or new() in the same
// function are exempt from the guarded-field check: nothing else can hold
// a reference yet, so constructors may fill fields lock-free.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "flag guarded-field access without the mutex, lock leaks on return/panic paths, and blocking calls under a lock",
	Run:  runLockCheck,
}

var guardedRe = regexp.MustCompile(`guarded by:?\s*([A-Za-z_]\w*)`)

// lockInfo describes one held mutex on a path.
type lockInfo struct {
	pos      token.Pos // Lock() position
	path     string    // rendered mutex path for diagnostics
	read     bool      // held via RLock only
	deferred bool      // an Unlock is deferred on this path
}

// lockFact maps mutex keys (exprKey of the mutex path) to hold info.
type lockFact map[string]lockInfo

// lockFlow solves held-mutex facts forward; must selects intersection
// (held on every path) versus union (held on some path) joins. prog
// supplies the resolved call sites and the interprocedural unlock
// summaries: a call to a method that may unlock a receiver mutex drops the
// held fact, closing the hidden-unlock blind spot (the caller can no
// longer be assumed to still hold the lock after the call).
type lockFlow struct {
	info *types.Info
	prog *Program
	must bool
}

func (lf *lockFlow) Entry() lockFact { return lockFact{} }

func (lf *lockFlow) mergeInfo(a, b lockInfo) lockInfo {
	out := a
	if b.pos < out.pos {
		out.pos = b.pos
	}
	out.read = a.read || b.read
	out.deferred = a.deferred && b.deferred
	return out
}

func (lf *lockFlow) Join(a, b lockFact) lockFact {
	out := lockFact{}
	for k, ai := range a {
		bi, ok := b[k]
		if ok {
			out[k] = lf.mergeInfo(ai, bi)
		} else if !lf.must {
			out[k] = ai
		}
	}
	if !lf.must {
		for k, bi := range b {
			if _, ok := a[k]; !ok {
				out[k] = bi
			}
		}
	}
	return out
}

func (lf *lockFlow) Equal(a, b lockFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ai := range a {
		bi, ok := b[k]
		if !ok || ai != bi {
			return false
		}
	}
	return true
}

func (lf *lockFlow) Transfer(n ast.Node, in lockFact) lockFact {
	return lockTransfer(lf.info, lf.prog, n, in)
}

// lockTransfer applies one node's Lock/Unlock/defer effects, plus
// summary-driven hidden unlocks through module-local callees.
func lockTransfer(info *types.Info, prog *Program, n ast.Node, in lockFact) lockFact {
	out := in
	copied := false
	ensure := func() {
		if !copied {
			cp := lockFact{}
			for k, v := range out {
				cp[k] = v
			}
			out, copied = cp, true
		}
	}

	if d, ok := n.(*ast.DeferStmt); ok {
		if key, _, role := lockOp(info, prog.SiteAt(d.Call)); role == lockRelease {
			if li, held := out[key]; held {
				ensure()
				li.deferred = true
				out[key] = li
			}
		}
		return out
	}

	inspectShallow(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		site := prog.SiteAt(call)
		key, path, role := lockOp(info, site)
		switch role {
		case lockAcquire:
			ensure()
			out[key] = lockInfo{pos: call.Pos(), path: path}
		case lockAcquireRead:
			ensure()
			out[key] = lockInfo{pos: call.Pos(), path: path, read: true}
		case lockRelease:
			if _, held := out[key]; held {
				ensure()
				delete(out, key)
			}
		case lockNone:
			// Interprocedural: a callee that may unlock a receiver mutex
			// means the lock cannot be assumed held after the call.
			for _, k := range hiddenUnlockKeys(info, prog, site) {
				if _, held := out[k]; held {
					ensure()
					delete(out, k)
				}
			}
		}
		return true
	})
	return out
}

// hiddenUnlockKeys returns the lock-fact keys a call may release through
// its callees' unlock summaries (e.g. x.finish() where finish does
// x.mu.Unlock()).
func hiddenUnlockKeys(info *types.Info, prog *Program, site *CallSite) []string {
	if site == nil || len(site.Callees) == 0 {
		return nil
	}
	baseKey, ok := exprKey(info, site.RecvExpr)
	if !ok {
		return nil
	}
	var keys []string
	for _, callee := range site.Callees {
		for _, f := range prog.SummaryOf(callee).UnlockFields {
			keys = append(keys, fieldKey(baseKey, f))
		}
	}
	return keys
}

// fieldKey extends a receiver key by a summary's mutex field; "" names the
// receiver itself.
func fieldKey(base, field string) string {
	if field == "" {
		return base
	}
	return base + "." + field
}

// lockOp reads a call's mutex operation off its resolved site: the lock
// role its stdlib callee has in the table, and the keyable path of the
// receiver operand it acts on — for a method promoted from an embedded
// mutex, the embedding value.
func lockOp(info *types.Info, site *CallSite) (key, path string, role lockRole) {
	if role = site.std().lock; role == lockNone {
		return "", "", lockNone
	}
	key, ok := exprKey(info, site.RecvExpr)
	if !ok {
		return "", "", lockNone
	}
	return key, renderPath(site.RecvExpr), role
}

// isMutexType reports whether t is (a pointer to) sync.Mutex or
// sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// lockCtx is the per-package context for the checks.
type lockCtx struct {
	pass *Pass
	// guarded maps annotated field objects to the sibling mutex field name.
	guarded map[types.Object]string
	// leakReported dedups lock-leak reports by Lock position.
	leakReported map[token.Pos]bool
}

func runLockCheck(pass *Pass) error {
	ctx := &lockCtx{
		pass:         pass,
		guarded:      collectGuarded(pass),
		leakReported: map[token.Pos]bool{},
	}
	for _, node := range pass.Prog.NodesOf(pass.pkg()) {
		ctx.checkFunc(node)
	}
	return nil
}

// collectGuarded parses `// guarded by: mu` field annotations, validating
// that the named guard is a sibling mutex field.
func collectGuarded(pass *Pass) map[types.Object]string {
	out := map[types.Object]string{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			// Mutex fields available as guards in this struct.
			mutexFields := map[string]bool{}
			for _, f := range st.Fields.List {
				if isMutexType(pass.TypesInfo.TypeOf(f.Type)) {
					for _, name := range f.Names {
						mutexFields[name.Name] = true
					}
				}
			}
			for _, f := range st.Fields.List {
				mu := fieldGuard(f)
				if mu == "" {
					continue
				}
				if !mutexFields[mu] {
					pass.Reportf(f.Pos(), "guarded by: %s names no sibling sync.Mutex/RWMutex field", mu)
					continue
				}
				for _, name := range f.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						out[obj] = mu
					}
				}
			}
			return true
		})
	}
	return out
}

// fieldGuard extracts the guard name from a field's doc or trailing
// comment.
func fieldGuard(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// freshLocals returns the objects of locals bound to freshly constructed
// values (&T{...}, T{...}, new(T)): no other goroutine can reference them,
// so their guarded fields may be touched lock-free.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			fresh := false
			switch r := rhs.(type) {
			case *ast.CompositeLit:
				fresh = true
			case *ast.UnaryExpr:
				if r.Op == token.AND {
					_, isLit := ast.Unparen(r.X).(*ast.CompositeLit)
					fresh = isLit
				}
			case *ast.CallExpr:
				if fn, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && fn.Name == "new" {
					if _, isBuiltin := info.Uses[fn].(*types.Builtin); isBuiltin {
						fresh = true
					}
				}
			}
			if fresh {
				if obj := info.Defs[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// checkFunc runs the lock analysis over one function node.
func (ctx *lockCtx) checkFunc(node *FuncNode) {
	info := ctx.pass.TypesInfo
	prog := ctx.pass.Prog
	g := prog.CFG(node)
	must := Forward[lockFact](g, &lockFlow{info: info, prog: prog, must: true})
	may := Forward[lockFact](g, &lockFlow{info: info, prog: prog, must: false})
	fresh := freshLocals(info, node.Body)
	sites := prog.local[node].sites

	for _, b := range g.Blocks {
		fMust, reachable := must.In[b]
		if !reachable {
			continue
		}
		fMay := may.In[b]
		for _, n := range b.Nodes {
			ctx.checkNode(n, fMust, fMay, fresh, sites)
			fMust = lockTransfer(info, prog, n, fMust)
			fMay = lockTransfer(info, prog, n, fMay)
		}
		// Fall-off-the-end exit: the block reaches Exit without a return
		// statement, so the leak check above never saw a flow-exit node.
		if blockFallsToExit(g, b, info) {
			ctx.reportLeaks(fMay)
		}
	}
}

// reportLeaks flags every may-held, non-deferred lock once.
func (ctx *lockCtx) reportLeaks(fMay lockFact) {
	for _, li := range fMay {
		if li.deferred || ctx.leakReported[li.pos] {
			continue
		}
		ctx.leakReported[li.pos] = true
		ctx.pass.Reportf(li.pos, "%s.Lock() may still be held at a return or panic (missing Unlock or defer on some path)", li.path)
	}
}

// checkNode applies the three lock checks at one straight-line node.
func (ctx *lockCtx) checkNode(n ast.Node, fMust, fMay lockFact, fresh map[types.Object]bool, sites []site) {
	info := ctx.pass.TypesInfo

	// 1. Guarded-field accesses need the mutex must-held.
	forEachAccess(n, func(sel *ast.SelectorExpr, write bool) {
		selection := info.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return
		}
		mu, guarded := ctx.guarded[selection.Obj()]
		if !guarded {
			return
		}
		baseKey, ok := exprKey(info, sel.X)
		if !ok {
			return
		}
		if fresh[rootObject(info, sel.X)] {
			return // freshly constructed: not yet shared
		}
		required := baseKey + "." + mu
		li, held := fMust[required]
		lockPath := renderPath(sel.X) + "." + mu
		if !held {
			ctx.pass.Reportf(sel.Pos(), "access to %s.%s (guarded by %s) without holding %s on every path",
				renderPath(sel.X), sel.Sel.Name, mu, lockPath)
			return
		}
		if write && li.read {
			ctx.pass.Reportf(sel.Pos(), "write to %s.%s while %s is only read-locked (RLock)",
				renderPath(sel.X), sel.Sel.Name, lockPath)
		}
	})

	// 2. Lock leaks: a return/panic reached while a lock may be held with
	// no deferred release.
	if isFlowExit(info, n) {
		ctx.reportLeaks(fMay)
	}

	// 3. Blocking operations while a lock is must-held.
	if len(fMust) == 0 {
		return
	}
	for _, st := range sites {
		if st.node == n && st.blocks {
			ctx.pass.Reportf(st.op, "%s while holding %s may block under the lock", st.opName(), heldPath(fMust))
		}
	}
	inspectShallow(n, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			ctx.checkBlockingCall(call, fMust)
		}
		return true
	})
}

// heldPath names one held lock for a diagnostic: the lexicographically
// smallest path, so the message does not depend on map iteration order
// when several locks are held.
func heldPath(held lockFact) string {
	path := ""
	for _, li := range held {
		if path == "" || li.path < path {
			path = li.path
		}
	}
	return path
}

// checkBlockingCall flags, under a held lock, a call whose stdlib callee
// blocks per the table (WaitGroup.Wait, time.Sleep), a self-deadlocking
// method call, and a call whose module-local callee may block. A call
// launched by a go statement blocks its own goroutine, not the caller.
func (ctx *lockCtx) checkBlockingCall(call *ast.CallExpr, fMust lockFact) {
	site := ctx.pass.Prog.SiteAt(call)
	if site == nil || site.Async {
		return
	}
	if name := site.stdWith(EffBlock); name != "" {
		ctx.pass.Reportf(call.Pos(), "%s while holding %s blocks under the lock",
			strings.NewReplacer("(", "", ")", "").Replace(name), heldPath(fMust))
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		ctx.checkSelfDeadlock(call, sel, fMust)
	}
	ctx.checkBlockingCallee(site, fMust)
}

// checkSelfDeadlock flags a call of a same-package method whose local facts
// say it acquires a receiver mutex the caller already holds exclusively.
func (ctx *lockCtx) checkSelfDeadlock(call *ast.CallExpr, sel *ast.SelectorExpr, fMust lockFact) {
	info := ctx.pass.TypesInfo
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	callee := ctx.pass.Prog.NodeOf(fn)
	if callee == nil || callee.Pkg != ctx.pass.pkg() {
		return
	}
	if baseKey, okKey := exprKey(info, sel.X); okKey {
		for _, mf := range sortedKeys(ctx.pass.Prog.local[callee].locked) {
			if li, held := fMust[fieldKey(baseKey, mf)]; held && !li.read {
				ctx.pass.Reportf(call.Pos(), "call to %s while holding %s: the callee locks the same mutex (self-deadlock)",
					sel.Sel.Name, li.path)
			}
		}
	}
}

// checkBlockingCallee is the interprocedural half of the blocking check: a
// module-local callee whose summary says it may block (a blocking channel
// site, range over a channel, WaitGroup.Wait, time.Sleep — directly or
// deeper in the call graph) is flagged when a lock is must-held at the
// call, with the chain to the root blocking site. A callee that first unlocks the held
// mutex drops the fact in the transfer before this check fires, so
// unlock-then-block helpers stay silent.
func (ctx *lockCtx) checkBlockingCallee(site *CallSite, fMust lockFact) {
	for _, callee := range site.Callees {
		sum := ctx.pass.Prog.SummaryOf(callee)
		if sum.Mask&EffBlock == 0 {
			continue
		}
		what := "a blocking operation"
		if sum.Block != nil && sum.Block.What != "" {
			what = sum.Block.What
		}
		ctx.pass.Reportf(site.Pos, "call to %s while holding %s may block under the lock: %s%s",
			callee.Name(), heldPath(fMust), what, sum.Block.Chain())
		return
	}
}

// isFlowExit reports whether node n terminates the function's flow: a
// return statement or a call that never returns (panic, os.Exit, ...).
func isFlowExit(info *types.Info, n ast.Node) bool {
	switch s := n.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			b := &builder{info: info}
			return b.neverReturns(call)
		}
	}
	return false
}
