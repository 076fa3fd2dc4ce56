package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StateCheck verifies declared state machines and paired resources
// against every intraprocedural path. A package opts in with comment
// directives (anywhere in the package):
//
//	//rexlint:transition MovePending -> MoveInFlight MoveCancelled
//	//rexlint:transition MoveDone ->
//	//rexlint:resource reservation held=MoveInFlight acquire=reserve release=release
//
// The transition directives declare the allowed successor states of each
// state constant; the resource directive declares that `reserve(x)` takes
// a unit of the reservation resource for x's owner and `release(x)` gives
// it back, and that the resource is held exactly while the owner's status
// field is MoveInFlight. The two names resolve to the functions of the one
// declarer of both — a named type of the package or the package level — and
// only calls resolved to those functions count; another type's `release`
// is not the resource's.
//
// The analysis is a forward may-analysis over sets of possible states
// (absent = unknown), with branch refinement: `if st.status ==
// MoveInFlight` narrows the set on the then-edge. It reports:
//
//   - T1: a status assignment `x.status = B` when every state x may be in
//     disallows a transition to B (state skipping);
//   - R2: a release while the owner's status provably excludes the held
//     state;
//   - R4: a second release for the same owner on one path with no
//     intervening acquire (the PR-4 double-release);
//   - R3: returning with the resource released but the status possibly
//     still the held state — the caller will observe a held status and
//     release again (the PR-4 root cause). Releasing when the status is
//     unknown infers status = held, so the check works even when the
//     held-ness was established through a different variable.
//
// Packages with no directives are skipped entirely.
var StateCheck = &Analyzer{
	Name: "statecheck",
	Doc:  "check declared state-machine transitions and acquire/release pairing of declared resources along all paths",
	Run:  runStateCheck,
}

// stateSet is a set of state constant names the status may hold.
type stateSet map[string]bool

func (s stateSet) clone() stateSet {
	out := stateSet{}
	for k := range s {
		out[k] = true
	}
	return out
}

func (s stateSet) names() string { return strings.Join(sortedKeys(s), "|") }

// resource lifecycle values.
type resState int

const (
	resHeld resState = iota + 1
	resReleased
)

// stateFact carries, per path: the may-set of each tracked status field
// (absent key = unknown), the lifecycle of each owner's resource, and
// value provenance (`mv := st.mv` records alias[mv] = st) used to map
// release arguments back to status owners.
type stateFact struct {
	status map[string]stateSet
	res    map[string]resState
	alias  map[string]string
}

func emptyStateFact() stateFact {
	return stateFact{status: map[string]stateSet{}, res: map[string]resState{}, alias: map[string]string{}}
}

func (f stateFact) clone() stateFact {
	out := emptyStateFact()
	for k, v := range f.status {
		out.status[k] = v.clone()
	}
	for k, v := range f.res {
		out.res[k] = v
	}
	for k, v := range f.alias {
		out.alias[k] = v
	}
	return out
}

// stateSpec is the resolved package configuration.
type stateSpec struct {
	// allowed maps a state name to its permitted successor states; a state
	// present with an empty set is terminal.
	allowed map[string]stateSet
	// consts maps the state constant objects back to their names.
	consts map[types.Object]string
	// statusField is the struct field name holding the state (the unique
	// field whose type matches the state constants).
	statusField string
	resources   []resourceSpec
}

type resourceSpec struct {
	name    string
	held    string
	acquire string
	release string
	// acquireFn and releaseFn are the resolved functions.
	acquireFn, releaseFn *types.Func
}

type stateFlow struct {
	info *types.Info
	prog *Program
	spec *stateSpec
}

func (sf *stateFlow) Entry() stateFact { return emptyStateFact() }

func (sf *stateFlow) Join(a, b stateFact) stateFact {
	out := emptyStateFact()
	// Status: known on both paths -> union; known on one -> unknown.
	for k, av := range a.status {
		bv, ok := b.status[k]
		if !ok {
			continue
		}
		u := av.clone()
		for s := range bv {
			u[s] = true
		}
		out.status[k] = u
	}
	// Resource + alias: keep only facts both paths agree on.
	for k, av := range a.res {
		if bv, ok := b.res[k]; ok && av == bv {
			out.res[k] = av
		}
	}
	for k, av := range a.alias {
		if bv, ok := b.alias[k]; ok && av == bv {
			out.alias[k] = av
		}
	}
	return out
}

func (sf *stateFlow) Equal(a, b stateFact) bool {
	if len(a.status) != len(b.status) || len(a.res) != len(b.res) || len(a.alias) != len(b.alias) {
		return false
	}
	for k, av := range a.status {
		bv, ok := b.status[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for s := range av {
			if !bv[s] {
				return false
			}
		}
	}
	for k, av := range a.res {
		if b.res[k] != av {
			return false
		}
	}
	for k, av := range a.alias {
		if b.alias[k] != av {
			return false
		}
	}
	return true
}

// Refine narrows status sets along `status == Const` / `status != Const`
// edges (real if/for conditions and the synthesized switch-case
// equalities).
func (sf *stateFlow) Refine(e Edge, f stateFact) stateFact {
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok {
		return f
	}
	var pathExpr, constExpr ast.Expr
	if sf.stateConst(bin.Y) != "" {
		pathExpr, constExpr = bin.X, bin.Y
	} else if sf.stateConst(bin.X) != "" {
		pathExpr, constExpr = bin.Y, bin.X
	} else {
		return f
	}
	state := sf.stateConst(constExpr)
	key, okKey := sf.statusKey(pathExpr)
	if !okKey {
		return f
	}
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return f
	}
	eq := bin.Op == token.EQL
	if e.Neg {
		eq = !eq
	}
	out := f.clone()
	if eq {
		out.status[key] = stateSet{state: true}
		return out
	}
	// status != Const: remove from a known set; stays unknown otherwise.
	if cur, known := out.status[key]; known {
		nu := cur.clone()
		delete(nu, state)
		out.status[key] = nu
	}
	return out
}

// stateConst returns the state name e references, or "".
func (sf *stateFlow) stateConst(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return sf.spec.consts[sf.info.Uses[x]]
	case *ast.SelectorExpr:
		return sf.spec.consts[sf.info.Uses[x.Sel]]
	}
	return ""
}

// statusKey returns the fact key for a status-field path like `st.status`.
func (sf *stateFlow) statusKey(e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != sf.spec.statusField {
		return "", false
	}
	base, okBase := exprKey(sf.info, sel.X)
	if !okBase {
		return "", false
	}
	return base + "." + sf.spec.statusField, true
}

func (sf *stateFlow) Transfer(n ast.Node, in stateFact) stateFact {
	out := in
	copied := false
	ensure := func() stateFact {
		if !copied {
			out, copied = out.clone(), true
		}
		return out
	}
	inspectShallow(n, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.AssignStmt:
			sf.transferAssign(s, ensure, &out)
		case *ast.CallExpr:
			if spec, owner, ok := sf.resourceCall(s, out); ok {
				f := ensure()
				rk := owner + "#" + spec.res.name
				if spec.isAcquire {
					f.res[rk] = resHeld
				} else {
					f.res[rk] = resReleased
					// Releasing is only legal while held: infer the status
					// when it is unknown so the at-return check can fire even
					// if held-ness was established through another variable.
					sk := owner + "." + sf.spec.statusField
					if _, known := f.status[sk]; !known {
						f.status[sk] = stateSet{spec.res.held: true}
					}
				}
			}
		}
		return true
	})
	return out
}

// transferAssign updates status sets and provenance for one assignment.
func (sf *stateFlow) transferAssign(as *ast.AssignStmt, ensure func() stateFact, out *stateFact) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[i]
		// st.status = Const
		if key, ok := sf.statusKey(lhs); ok {
			f := ensure()
			if state := sf.stateConst(rhs); state != "" {
				f.status[key] = stateSet{state: true}
			} else {
				delete(f.status, key) // unknown value assigned
			}
			continue
		}
		lk, okL := exprKey(sf.info, lhs)
		if !okL {
			continue
		}
		// Reassignment kills every fact derived from the old value: its
		// provenance, its status set, and its resource lifecycle (a loop
		// re-binding `st := &e.moves[i]` starts a fresh owner).
		f := ensure()
		delete(f.alias, lk)
		delete(f.status, lk+"."+sf.spec.statusField)
		for _, r := range sf.spec.resources {
			delete(f.res, lk+"#"+r.name)
		}
		// mv := st.mv  — remember the owner for release(mv).
		if sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr); ok {
			if base, okB := exprKey(sf.info, sel.X); okB {
				f.alias[lk] = base
				continue
			}
		}
		// st := moveState{status: Const, ...} (or &T{...}) seeds the set.
		if state := sf.compositeStatus(rhs); state != "" {
			f.status[lk+"."+sf.spec.statusField] = stateSet{state: true}
		}
	}
}

// compositeStatus extracts the status field's state from a composite
// literal RHS, if present.
func (sf *stateFlow) compositeStatus(e ast.Expr) string {
	x := ast.Unparen(e)
	if u, ok := x.(*ast.UnaryExpr); ok {
		x = ast.Unparen(u.X)
	}
	lit, ok := x.(*ast.CompositeLit)
	if !ok {
		return ""
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == sf.spec.statusField {
			return sf.stateConst(kv.Value)
		}
	}
	return ""
}

// resourceCallInfo describes a matched acquire/release call.
type resourceCallInfo struct {
	res       resourceSpec
	isAcquire bool
}

// resourceCall matches a call whose resolved site reaches exactly one of
// the declared acquire/release functions and resolves the owner key of its
// first argument.
func (sf *stateFlow) resourceCall(call *ast.CallExpr, f stateFact) (resourceCallInfo, string, bool) {
	site := sf.prog.SiteAt(call)
	if site == nil || len(site.Callees) != 1 || len(call.Args) == 0 {
		return resourceCallInfo{}, "", false
	}
	fn := site.Callees[0].Fn
	for _, r := range sf.spec.resources {
		isAcq := fn == r.acquireFn
		if !isAcq && fn != r.releaseFn {
			continue
		}
		owner, ok := sf.ownerOf(call.Args[0], f)
		if !ok {
			return resourceCallInfo{}, "", false
		}
		return resourceCallInfo{res: r, isAcquire: isAcq}, owner, true
	}
	return resourceCallInfo{}, "", false
}

// ownerOf maps a resource-call argument to its owner key: for `st.mv` the
// owner is st; for a plain `mv` the recorded provenance (alias) wins, and
// the value itself is the owner otherwise.
func (sf *stateFlow) ownerOf(arg ast.Expr, f stateFact) (string, bool) {
	if sel, ok := ast.Unparen(arg).(*ast.SelectorExpr); ok {
		if base, okB := exprKey(sf.info, sel.X); okB {
			return base, true
		}
		return "", false
	}
	k, ok := exprKey(sf.info, arg)
	if !ok {
		return "", false
	}
	if owner, aliased := f.alias[k]; aliased {
		return owner, true
	}
	return k, true
}

func runStateCheck(pass *Pass) error {
	spec := resolveStateSpec(pass)
	if spec == nil {
		return nil // package declares no state machine
	}
	for _, node := range pass.Prog.NodesOf(pass.pkg()) {
		checkStateFunc(pass, spec, node)
	}
	return nil
}

// resolveStateSpec parses the package's transition/resource directives and
// resolves state constants and the status field. Returns nil when the
// package has no directives.
func resolveStateSpec(pass *Pass) *stateSpec {
	trans := directives(pass.Files, "transition")
	ress := directives(pass.Files, "resource")
	if len(trans) == 0 && len(ress) == 0 {
		return nil
	}
	spec := &stateSpec{allowed: map[string]stateSet{}, consts: map[types.Object]string{}}
	names := map[string]bool{}
	for _, fields := range trans {
		// FROM -> TO1 TO2 ...
		arrow := -1
		for i, f := range fields {
			if f == "->" {
				arrow = i
				break
			}
		}
		if arrow != 1 || len(fields) < 2 {
			pass.Reportf(pass.Files[0].Pos(), "malformed rexlint:transition directive: want `STATE -> STATE...`, got %q", strings.Join(fields, " "))
			continue
		}
		from := fields[0]
		names[from] = true
		set := spec.allowed[from]
		if set == nil {
			set = stateSet{}
			spec.allowed[from] = set
		}
		for _, to := range fields[arrow+1:] {
			names[to] = true
			set[to] = true
		}
	}
	for _, fields := range ress {
		r := resourceSpec{}
		if len(fields) >= 1 {
			r.name = fields[0]
		}
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				continue
			}
			switch k {
			case "held":
				r.held = v
			case "acquire":
				r.acquire = v
			case "release":
				r.release = v
			}
		}
		if r.name == "" || r.held == "" || r.acquire == "" || r.release == "" {
			pass.Reportf(pass.Files[0].Pos(), "malformed rexlint:resource directive: want `name held=S acquire=fn release=fn`")
			continue
		}
		var ok bool
		if r.acquireFn, r.releaseFn, ok = resourceFuncs(pass.Pkg, r.acquire, r.release); !ok {
			pass.Reportf(pass.Files[0].Pos(), "rexlint:resource %s: want exactly one type or the package level to declare both %s and %s", r.name, r.acquire, r.release)
			continue
		}
		names[r.held] = true
		spec.resources = append(spec.resources, r)
	}
	// Resolve the state constants in package scope.
	var stateType types.Type
	for name := range names {
		obj := pass.Pkg.Scope().Lookup(name)
		if obj == nil {
			pass.Reportf(pass.Files[0].Pos(), "rexlint state directive names unknown constant %s", name)
			continue
		}
		spec.consts[obj] = name
		if stateType == nil {
			stateType = obj.Type()
		}
	}
	if stateType == nil {
		return nil
	}
	// The status field: the unique field of the state type among package
	// structs.
	fieldNames := map[string]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				if t := pass.TypesInfo.TypeOf(f.Type); t != nil && types.Identical(t, stateType) {
					for _, nm := range f.Names {
						fieldNames[nm.Name] = true
					}
				}
			}
			return true
		})
	}
	if len(fieldNames) != 1 {
		pass.Reportf(pass.Files[0].Pos(), "statecheck: cannot determine the status field: found %d candidate fields of type %s", len(fieldNames), stateType)
		return nil
	}
	for n := range fieldNames {
		spec.statusField = n
	}
	return spec
}

// resourceFuncs resolves a resource's acquire and release names to the
// functions of their one declarer: the package level or a named type of the
// package declaring both. ok is false when none or several do.
func resourceFuncs(pkg *types.Package, acquire, release string) (acq, rel *types.Func, ok bool) {
	found := 0
	try := func(a, r types.Object) {
		fa, okA := a.(*types.Func)
		fr, okR := r.(*types.Func)
		if okA && okR {
			acq, rel = fa, fr
			found++
		}
	}
	scope := pkg.Scope()
	try(scope.Lookup(acquire), scope.Lookup(release))
	for _, name := range scope.Names() {
		tn, _ := scope.Lookup(name).(*types.TypeName)
		if tn == nil || tn.IsAlias() {
			continue
		}
		named, _ := tn.Type().(*types.Named)
		if named == nil {
			continue
		}
		var a, r types.Object
		for i := 0; i < named.NumMethods(); i++ {
			switch m := named.Method(i); m.Name() {
			case acquire:
				a = m
			case release:
				r = m
			}
		}
		try(a, r)
	}
	return acq, rel, found == 1
}

// checkStateFunc solves the state facts over one function and applies the
// T1/R2/R3/R4 checks.
func checkStateFunc(pass *Pass, spec *stateSpec, node *FuncNode) {
	flow := &stateFlow{info: pass.TypesInfo, prog: pass.Prog, spec: spec}
	g := pass.Prog.CFG(node)
	facts := replay[stateFact](g, flow, func(n ast.Node, f stateFact) {
		checkStateNode(pass, flow, n, f)
	})
	for _, b := range g.Blocks {
		if out, reachable := facts.Out[b]; reachable && blockFallsToExit(g, b, pass.TypesInfo) {
			reportReleasedButHeld(pass, flow, out, lastPos(b, node.Body))
		}
	}
}

// checkStateNode applies the per-node checks BEFORE n's own transfer.
func checkStateNode(pass *Pass, flow *stateFlow, n ast.Node, f stateFact) {
	spec := flow.spec
	inspectShallow(n, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				key, ok := flow.statusKey(lhs)
				if !ok {
					continue
				}
				to := flow.stateConst(s.Rhs[i])
				if to == "" {
					continue
				}
				cur, known := f.status[key]
				if !known || len(cur) == 0 {
					continue
				}
				// T1: flag only when EVERY possible current state disallows
				// the target — a superset state stays silent.
				allBad := true
				for from := range cur {
					allowed, declared := spec.allowed[from]
					if !declared || allowed[to] {
						allBad = false
						break
					}
				}
				if allBad {
					pass.Reportf(s.Pos(), "invalid transition %s -> %s (allowed: %s)", cur.names(), to, allowedStr(spec, cur))
				}
			}
		case *ast.CallExpr:
			ci, owner, ok := flow.resourceCall(s, f)
			if !ok {
				return true
			}
			rk := owner + "#" + ci.res.name
			if ci.isAcquire {
				if f.res[rk] == resHeld {
					pass.Reportf(s.Pos(), "%s acquired again without an intervening %s (double acquire)", ci.res.name, ci.res.release)
				}
				return true
			}
			// R4: double release on one path.
			if f.res[rk] == resReleased {
				pass.Reportf(s.Pos(), "%s released twice on this path without an intervening %s (double release)", ci.res.name, ci.res.acquire)
				return true
			}
			// R2: release while the status provably excludes the held state.
			sk := owner + "." + spec.statusField
			if cur, known := f.status[sk]; known && !cur[ci.res.held] {
				pass.Reportf(s.Pos(), "%s released while %s is %s (release is only legal in %s)", ci.res.name, spec.statusField, cur.names(), ci.res.held)
			}
		}
		return true
	})
	if isFlowExit(pass.TypesInfo, n) {
		reportReleasedButHeld(pass, flow, f, n.Pos())
	}
}

// reportReleasedButHeld is the R3 / PR-4 check: at a flow exit, a released
// resource whose owner's status may still be the held state means a later
// observer will release again.
func reportReleasedButHeld(pass *Pass, flow *stateFlow, f stateFact, pos token.Pos) {
	spec := flow.spec
	for rk, st := range f.res {
		if st != resReleased {
			continue
		}
		i := strings.LastIndexByte(rk, '#')
		if i < 0 {
			continue
		}
		owner, resName := rk[:i], rk[i+1:]
		var held string
		for _, r := range spec.resources {
			if r.name == resName {
				held = r.held
			}
		}
		if held == "" {
			continue
		}
		sk := owner + "." + spec.statusField
		if cur, known := f.status[sk]; known && cur[held] {
			pass.Reportf(pos, "returning with %s released but %s possibly still %s: a later pass over this status will release again (double-release shape)", resName, spec.statusField, held)
		}
	}
}

// allowedStr renders the union of allowed successors of all states in cur.
func allowedStr(spec *stateSpec, cur stateSet) string {
	u := stateSet{}
	for from := range cur {
		for to := range spec.allowed[from] {
			u[to] = true
		}
	}
	if len(u) == 0 {
		return "none"
	}
	return u.names()
}
