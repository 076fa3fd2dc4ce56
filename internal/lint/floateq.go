package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between floating-point operands in objective and
// metrics code. After long chains of incremental adds and subtracts (the
// placement aggregates) two mathematically equal quantities rarely compare
// equal bit-for-bit, so exact comparison encodes a latent heisenbug; compare
// within a tolerance (vec.AlmostEqual for vectors) instead.
//
// Two idioms are deliberately exempt:
//
//   - comparison against a constant (x == 0 checks an exact sentinel that
//     was assigned, not computed);
//   - comparisons inside a function literal passed as a call argument —
//     sort comparators break ties with exact != on purpose, and an epsilon
//     there would destroy the strict weak ordering sort requires.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "flag exact ==/!= between floats; use an epsilon comparison",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) error {
	for _, file := range pass.Files {
		// Collect comparator-style function literals: literals passed
		// directly as call arguments (sort.Slice less functions and the
		// solver's local sort helpers).
		comparators := comparatorRanges(file)
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			if bin.Op != token.EQL && bin.Op != token.NEQ {
				return true
			}
			if !isFloat(pass, bin.X) && !isFloat(pass, bin.Y) {
				return true
			}
			if isConstant(pass, bin.X) || isConstant(pass, bin.Y) {
				return true
			}
			for _, r := range comparators {
				if bin.Pos() >= r[0] && bin.End() <= r[1] {
					return true
				}
			}
			pass.Reportf(bin.OpPos,
				"exact floating-point %s on computed values; compare within a tolerance (vec.AlmostEqual for vectors)",
				bin.Op)
			return true
		})
	}
	return nil
}

// comparatorRanges returns the position spans of function literals passed
// directly as arguments to calls.
func comparatorRanges(file *ast.File) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				out = append(out, [2]token.Pos{lit.Pos(), lit.End()})
			}
		}
		return true
	})
	return out
}

// isFloat reports whether e has floating-point type.
func isFloat(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isConstant reports whether e is a compile-time constant.
func isConstant(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}
