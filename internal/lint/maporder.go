package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `range` loops over maps whose body appends to a slice
// declared outside the loop. Go randomizes map iteration order, so such a
// loop produces a differently-ordered slice on every run — which in solver
// or planner state silently breaks the determinism the paper's
// reproducibility claims rest on, and in floating-point accumulation
// changes results in the last bits. The canonical fixes — collect the keys,
// sort them, then iterate, or sort the produced slice before use — are
// recognized: a loop whose result slice is passed to sort.* or slices.Sort*
// later in the same block is not flagged.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration that builds slices in nondeterministic order",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmts := stmtList(n)
			if stmts == nil {
				return true
			}
			for i, stmt := range stmts {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				t := pass.TypesInfo.TypeOf(rs.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				checkMapRange(pass, rs, stmts[i+1:])
			}
			return true
		})
	}
	return nil
}

// stmtList extracts the statement sequence held by n, if any.
func stmtList(n ast.Node) []ast.Stmt {
	switch x := n.(type) {
	case *ast.BlockStmt:
		return x.List
	case *ast.CaseClause:
		return x.Body
	case *ast.CommClause:
		return x.Body
	}
	return nil
}

// checkMapRange reports appends inside rs whose target slice outlives the
// loop, unless that slice is sorted by a following statement.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, following []ast.Stmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return true
		}
		if _, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); !isBuiltin {
			return true
		}
		root := rootIdent(call.Args[0])
		if root == nil {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(root)
		if obj == nil {
			return true
		}
		if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
			return true // loop-local slice; dies with the iteration
		}
		if sortedAfter(pass, obj, following) {
			return true
		}
		pass.Reportf(call.Pos(),
			"append to %s while ranging over a map yields nondeterministic order; sort the map keys first or sort %s before use",
			root.Name, root.Name)
		return true
	})
}

// sortedAfter reports whether any of the following statements passes obj to
// a sort.* or slices.Sort* call (the sanctioned collect-then-sort idiom).
func sortedAfter(pass *Pass, obj types.Object, following []ast.Stmt) bool {
	for _, stmt := range following {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if stdCallOf(funcNameOf(pass.TypesInfo, call.Fun)).order != orderSanitize {
				return true
			}
			for _, arg := range call.Args {
				if root := rootIdent(arg); root != nil && pass.TypesInfo.ObjectOf(root) == obj {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// rootIdent returns the base identifier of an expression chain like
// x, x.f, x[i], (*x).f — or nil when there is none.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
