package lint

import (
	"go/ast"
	"go/types"
)

// NoGlobalRand forbids package-level math/rand functions (rand.Intn,
// rand.Float64, rand.Shuffle, …) in non-test code. The solver promises
// bit-identical results for a fixed Config.Seed, including across parallel
// restarts; the global generator is shared mutable state whose consumption
// order depends on goroutine scheduling, so a single stray rand.Intn breaks
// the reproducibility contract silently. Constructors (rand.New,
// rand.NewSource, rand.NewZipf, rand.NewPCG, rand.NewChaCha8) remain
// allowed: they are exactly how a seeded *rand.Rand is built.
var NoGlobalRand = &Analyzer{
	Name: "noglobalrand",
	Doc:  "forbid global math/rand functions; thread a seeded *rand.Rand from Config.Seed",
	Run:  runNoGlobalRand,
}

// randConstructors are the math/rand(/v2) package-level names that build
// explicit generators rather than consuming the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runNoGlobalRand(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, ok := qualifierPath(pass.TypesInfo, sel)
			if !ok || (path != "math/rand" && path != "math/rand/v2") {
				return true
			}
			name := sel.Sel.Name
			if randConstructors[name] {
				return true
			}
			// Only flag functions: types (rand.Rand, rand.Source, rand.Zipf)
			// are legitimate references.
			if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !isFunc {
				return true
			}
			pass.Reportf(sel.Pos(),
				"global %s.%s draws from shared scheduler-dependent state; thread a seeded *rand.Rand (from Config.Seed) instead",
				path, name)
			return true
		})
	}
	return nil
}
