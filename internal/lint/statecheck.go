package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StateCheck verifies a declared state machine against every
// intraprocedural path. A package opts in with comment directives
// (anywhere in the package):
//
//	//rexlint:transition MovePending -> MoveInFlight MoveCancelled
//	//rexlint:transition MoveDone ->
//
// Each directive declares the allowed successor states of one state
// constant. The analysis is a forward may-analysis over sets of possible
// states (absent = unknown), with branch refinement: `if st.status ==
// MoveInFlight` narrows the set on the then-edge. It reports a status
// assignment `x.status = B` when every state x may be in disallows a
// transition to B (state skipping).
//
// Packages with no directives are skipped entirely.
var StateCheck = &Analyzer{
	Name: "statecheck",
	Doc:  "check declared state-machine transitions along all paths",
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

// stateFact maps each tracked status field (`st.status`) to the may-set of
// its states on one path; an absent key is unknown.
type stateFact map[string]stateSet

func (f stateFact) clone() stateFact {
	out := stateFact{}
	for k, v := range f {
		out[k] = v.clone()
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
}

type stateFlow struct {
	info *types.Info
	spec *stateSpec
}

func (sf *stateFlow) Entry() stateFact { return stateFact{} }

// Join keeps a status known on both paths as the union of its sets; a
// status known on one path only becomes unknown.
func (sf *stateFlow) Join(a, b stateFact) stateFact {
	out := stateFact{}
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			continue
		}
		u := av.clone()
		for s := range bv {
			u[s] = true
		}
		out[k] = u
	}
	return out
}

func (sf *stateFlow) Equal(a, b stateFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for s := range av {
			if !bv[s] {
				return false
			}
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
		out[key] = stateSet{state: true}
		return out
	}
	// status != Const: remove from a known set; stays unknown otherwise.
	delete(out[key], state)
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
	inspectShallow(n, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		if !copied {
			out, copied = out.clone(), true
		}
		sf.transferAssign(as, out)
		return true
	})
	return out
}

// transferAssign updates the status sets for one assignment.
func (sf *stateFlow) transferAssign(as *ast.AssignStmt, f stateFact) {
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[i]
		// st.status = Const
		if key, ok := sf.statusKey(lhs); ok {
			if state := sf.stateConst(rhs); state != "" {
				f[key] = stateSet{state: true}
			} else {
				delete(f, key) // unknown value assigned
			}
			continue
		}
		lk, okL := exprKey(sf.info, lhs)
		if !okL {
			continue
		}
		// Reassignment kills the old value's status set; `st :=
		// moveState{status: Const, ...}` (or &T{...}) seeds a new one.
		sk := lk + "." + sf.spec.statusField
		delete(f, sk)
		if state := sf.compositeStatus(rhs); state != "" {
			f[sk] = stateSet{state: true}
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

// resolveStateSpec parses the package's transition directives and resolves
// state constants and the status field. Returns nil when the package has
// no directives.
func resolveStateSpec(pass *Pass) *stateSpec {
	trans := directives(pass.Files, "transition")
	if len(trans) == 0 {
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

// checkStateFunc solves the state facts over one function and flags, before
// each node's own transfer, every status assignment that no possible
// current state allows.
func checkStateFunc(pass *Pass, spec *stateSpec, node *FuncNode) {
	flow := &stateFlow{info: pass.TypesInfo, spec: spec}
	replay[stateFact](pass.Prog.CFG(node), flow, func(n ast.Node, f stateFact) {
		inspectShallow(n, func(x ast.Node) bool {
			if as, ok := x.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				checkTransitions(pass, flow, as, f)
			}
			return true
		})
	})
}

// checkTransitions flags a status assignment only when EVERY possible
// current state disallows the target — a superset state stays silent, and
// so does an unknown one.
func checkTransitions(pass *Pass, flow *stateFlow, as *ast.AssignStmt, f stateFact) {
	spec := flow.spec
	for i, lhs := range as.Lhs {
		key, ok := flow.statusKey(lhs)
		if !ok {
			continue
		}
		to := flow.stateConst(as.Rhs[i])
		cur := f[key]
		if to == "" || len(cur) == 0 {
			continue
		}
		allBad := true
		for from := range cur {
			allowed, declared := spec.allowed[from]
			if !declared || allowed[to] {
				allBad = false
				break
			}
		}
		if allBad {
			pass.Reportf(as.Pos(), "invalid transition %s -> %s (allowed: %s)", cur.names(), to, allowedStr(spec, cur))
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
