package lint

import "strings"

// wholeModule is the package-tree list of an analyzer that guards every
// package: the empty suffix names the module root and everything under it.
var wholeModule = []string{""}

// Analyzers returns the rexlint suite with each analyzer scoped to the
// package trees of the module (modPath) where its contract applies. The
// scope lives here, in the driver policy, rather than inside the analyzers,
// so the test harness can exercise each analyzer on fixtures regardless of
// import path. The order is pinned: bench/rexbench's result schema lists
// the per-analyzer metrics in it.
//
// Whole-module analyzers that key off an annotation (lockcheck's guarded-by,
// statecheck's transition, alloccheck's noalloc, purity's pure, nonneg's
// nonneg) find nothing to check in a package that declares none — but not
// nothing to do: lockcheck solves held-lock facts over every function to
// find leaked locks and blocking under a lock whether or not a field is
// annotated, about 0.09 s of a cold module run, and nonneg walks every
// statement, since an annotated field may be written from another package;
// the others cost well under a millisecond there.
func Analyzers(modPath string) []*Analyzer {
	table := []struct {
		analyzer *Analyzer
		trees    []string // module-relative package trees the analyzer guards
	}{
		// Reproducibility is a global property: one stray global draw
		// anywhere breaks it.
		{NoGlobalRand, wholeModule},
		// The solver, planner, cluster model, and the simulator (des): the
		// packages whose outputs must be bit-reproducible for a fixed seed.
		{MapOrder, []string{"/internal/core", "/internal/plan", "/internal/cluster", "/internal/des"}},
		// Objective/aggregate code, where quantities are computed
		// incrementally and exact comparison is a latent bug.
		{FloatEq, []string{
			"/internal/core", "/internal/plan", "/internal/cluster",
			"/internal/stats", "/internal/vec", "/internal/des",
		}},
		{ErrIgnore, []string{"/internal"}},
		// Any package may register metrics on an obs.Registry and the
		// exposition contract is global.
		{MetricName, wholeModule},
		// Guarded-by annotations are opt-in per field; lock leaks and
		// blocking under a lock are checked everywhere.
		{LockCheck, wholeModule},
		// Activates only in packages that declare transition/resource
		// directives.
		{StateCheck, wholeModule},
		// The deterministic packages: wall time must enter through the
		// ctl.Clock seam only.
		{ClockPurity, []string{"/internal/core", "/internal/ctl", "/internal/obs", "/internal/des"}},
		// The long-running control plane (ctl and the commands), where an
		// unstoppable goroutine defeats shutdown.
		{LeakCheck, []string{"/internal/ctl", "/cmd"}},
		// The packages that handle cluster.Placement and the partition views
		// built on it: the single-owner contract the partitioned parallel
		// solver depends on.
		{ShareCheck, []string{"/internal/core", "/internal/cluster", "/internal/ctl"}},
		// Both activate only on functions that opt in via //rexlint:noalloc /
		// //rexlint:pure.
		{AllocCheck, wholeModule},
		{Purity, wholeModule},
		// RNG stream isolation is a global property and the taint follows
		// values across package boundaries.
		{StreamFlow, wholeModule},
		// The deterministic-output packages, where journal writes,
		// expositions, and reports must be byte-reproducible.
		{DetFlow, []string{"/internal/obs", "/internal/des", "/internal/ctl"}},
		// Activates only on fields annotated //rexlint:nonneg.
		{NonNeg, wholeModule},
	}
	out := make([]*Analyzer, len(table))
	for i, row := range table {
		scoped := *row.analyzer
		scoped.AppliesTo = func(pkgPath string) bool {
			for _, tree := range row.trees {
				if pkgPath == modPath+tree || strings.HasPrefix(pkgPath, modPath+tree+"/") {
					return true
				}
			}
			return false
		}
		out[i] = &scoped
	}
	return out
}
