package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// NonNeg guards annotated resource counters against the double-release bug
// class (an executor releasing the same reservation twice drove its
// in-flight count below zero). Integer struct fields opt in with
//
//	count int //rexlint:nonneg
//
// Every write to such a field is checked against the invariant floor 0:
// `x--`, `x -= c` with c > 0 or a non-constant amount, `x += c` with c < 0
// and `x = c` with c < 0 are findings, wherever they stand. Nothing is
// proven from guards or earlier writes, so each decrement the code keeps
// carries //rexlint:ignore nonneg <invariant>, naming why the counter is
// positive there, and a runtime twin (an assertion under -tags
// debugasserts) checks the same invariant. Local copies of a counter and
// writes through index expressions (s.machines[i].n--) are outside the
// rule: a local is the function's own variable, not the struct's
// invariant.
var NonNeg = &Analyzer{
	Name: "nonneg",
	Doc:  "flag writes that can take a //rexlint:nonneg counter below 0 unless a waiver names the invariant",
	Run:  runNonNeg,
}

// collectNonnegFields maps every //rexlint:nonneg-annotated struct field
// (doc comment above the field or line comment beside it) of the program
// to whether it has an integer type.
func collectNonnegFields(pkgs []*Package) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	hasDirective := func(cg *ast.CommentGroup) bool { return len(groupDirective(cg, "nonneg")) > 0 }
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				for _, field := range st.Fields.List {
					if !hasDirective(field.Doc) && !hasDirective(field.Comment) {
						continue
					}
					for _, name := range field.Names {
						if obj, _ := pkg.Info.Defs[name].(*types.Var); obj != nil {
							basic, isBasic := obj.Type().Underlying().(*types.Basic)
							out[obj] = isBasic && basic.Info()&types.IsInteger != 0
						}
					}
				}
				return true
			})
		}
	}
	return out
}

func runNonNeg(pass *Pass) error {
	visible := false // a package can write its own counters and exported ones
	for v, isInt := range pass.Prog.nonneg {
		own := v.Pkg() == pass.Pkg
		if own && !isInt {
			pass.Reportf(v.Pos(), "//rexlint:nonneg on non-integer field %s (%s)", v.Name(), v.Type())
		}
		visible = visible || isInt && (own || v.Exported())
	}
	if !visible {
		return nil
	}
	info := pass.TypesInfo
	counter := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		fv, _ := info.Uses[sel.Sel].(*types.Var)
		return pass.Prog.nonneg[fv] && rootObject(info, sel) != nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.IncDecStmt:
				if s.Tok == token.DEC && counter(s.X) {
					pass.Reportf(s.Pos(), "%s may go negative: decrement of //rexlint:nonneg counter from the invariant floor 0", renderPath(s.X))
				}
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, lhs := range s.Lhs {
					if !counter(lhs) {
						continue
					}
					c, isConst := constIntOf(info, s.Rhs[i])
					switch {
					case s.Tok == token.SUB_ASSIGN && !isConst:
						pass.Reportf(s.Pos(), "%s may go negative: decrement of //rexlint:nonneg counter by a non-constant amount", renderPath(lhs))
					case s.Tok == token.SUB_ASSIGN && c > 0:
						pass.Reportf(s.Pos(), "%s may go negative: decrement by %d from the invariant floor 0", renderPath(lhs), c)
					case s.Tok == token.ADD_ASSIGN && isConst && c < 0:
						pass.Reportf(s.Pos(), "%s may go negative: increment by negative constant %d from the invariant floor 0", renderPath(lhs), c)
					case s.Tok == token.ASSIGN && isConst && c < 0:
						pass.Reportf(s.Pos(), "//rexlint:nonneg counter %s assigned negative constant %d", renderPath(lhs), c)
					}
				}
			}
			return true
		})
	}
	return nil
}

// constIntOf returns the value of an integer constant expression that fits
// in an int.
func constIntOf(info *types.Info, e ast.Expr) (int, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	if !exact {
		return 0, false
	}
	return int(v), true
}
