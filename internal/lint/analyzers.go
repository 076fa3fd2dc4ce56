package lint

import "strings"

// Analyzers returns the rexlint suite with each analyzer scoped to the
// packages of the module (modPath) where its contract applies:
//
//   - noglobalrand guards the whole module: reproducibility is a global
//     property and one stray global draw anywhere breaks it.
//   - maporder guards the solver, planner, cluster model, and the
//     simulator (des) — the packages whose outputs must be
//     bit-reproducible for a fixed seed.
//   - floateq guards objective/aggregate code, where quantities are
//     computed incrementally and exact comparison is a latent bug.
//   - errignore guards every internal package.
//   - metricname guards the whole module: any package may register metrics
//     on an obs.Registry and the exposition contract is global.
//   - lockcheck guards the whole module: guarded-by annotations are opt-in
//     per field, so un-annotated packages cost nothing.
//   - statecheck guards the whole module: it activates only in packages
//     that declare transition/resource directives.
//   - clockpurity guards the deterministic packages (core, ctl, obs, des):
//     wall time must enter through the ctl.Clock seam only.
//   - leakcheck guards the long-running control plane (ctl and the
//     commands), where an unstoppable goroutine defeats shutdown.
//   - sharecheck guards the packages that handle cluster.Placement and the
//     partition views built on it (core, cluster, ctl): the
//     single-owner contract the partitioned parallel solver depends on.
//   - alloccheck and purity guard the whole module: both activate only on
//     functions that opt in via //rexlint:noalloc / //rexlint:pure, so
//     un-annotated packages cost nothing.
//   - streamflow guards the whole module: RNG stream isolation is a global
//     property and the taint follows values across package boundaries.
//   - detflow guards the deterministic-output packages (obs, des, ctl),
//     where journal writes, expositions, and reports must be
//     byte-reproducible.
//   - nonneg guards the whole module: it activates only on fields annotated
//     //rexlint:nonneg, so un-annotated packages cost nothing.
//
// The scope lives here, in the driver policy, rather than inside the
// analyzers, so the test harness can exercise each analyzer on fixtures
// regardless of import path.
func Analyzers(modPath string) []*Analyzer {
	inModule := func(suffixes ...string) func(string) bool {
		return func(pkgPath string) bool {
			for _, s := range suffixes {
				if pkgPath == modPath+s || strings.HasPrefix(pkgPath, modPath+s+"/") {
					return true
				}
			}
			return false
		}
	}

	noGlobalRand := *NoGlobalRand
	noGlobalRand.AppliesTo = func(pkgPath string) bool {
		return pkgPath == modPath || strings.HasPrefix(pkgPath, modPath+"/")
	}

	mapOrder := *MapOrder
	mapOrder.AppliesTo = inModule(
		"/internal/core", "/internal/plan", "/internal/cluster", "/internal/des",
	)

	floatEq := *FloatEq
	floatEq.AppliesTo = inModule(
		"/internal/core", "/internal/plan", "/internal/cluster",
		"/internal/stats", "/internal/vec", "/internal/des",
	)

	errIgnore := *ErrIgnore
	errIgnore.AppliesTo = inModule("/internal")

	metricName := *MetricName
	metricName.AppliesTo = func(pkgPath string) bool {
		return pkgPath == modPath || strings.HasPrefix(pkgPath, modPath+"/")
	}

	lockCheck := *LockCheck
	lockCheck.AppliesTo = func(pkgPath string) bool {
		return pkgPath == modPath || strings.HasPrefix(pkgPath, modPath+"/")
	}

	stateCheck := *StateCheck
	stateCheck.AppliesTo = func(pkgPath string) bool {
		return pkgPath == modPath || strings.HasPrefix(pkgPath, modPath+"/")
	}

	clockPurity := *ClockPurity
	clockPurity.AppliesTo = inModule(
		"/internal/core", "/internal/ctl", "/internal/obs", "/internal/des",
	)

	leakCheck := *LeakCheck
	leakCheck.AppliesTo = inModule("/internal/ctl", "/cmd")

	shareCheck := *ShareCheck
	shareCheck.AppliesTo = inModule("/internal/core", "/internal/cluster", "/internal/ctl")

	allocCheck := *AllocCheck
	allocCheck.AppliesTo = func(pkgPath string) bool {
		return pkgPath == modPath || strings.HasPrefix(pkgPath, modPath+"/")
	}

	purity := *Purity
	purity.AppliesTo = func(pkgPath string) bool {
		return pkgPath == modPath || strings.HasPrefix(pkgPath, modPath+"/")
	}

	streamFlow := *StreamFlow
	streamFlow.AppliesTo = func(pkgPath string) bool {
		return pkgPath == modPath || strings.HasPrefix(pkgPath, modPath+"/")
	}

	detFlow := *DetFlow
	detFlow.AppliesTo = inModule(
		"/internal/obs", "/internal/des", "/internal/ctl",
	)

	nonNeg := *NonNeg
	nonNeg.AppliesTo = func(pkgPath string) bool {
		return pkgPath == modPath || strings.HasPrefix(pkgPath, modPath+"/")
	}

	return []*Analyzer{
		&noGlobalRand, &mapOrder, &floatEq, &errIgnore, &metricName,
		&lockCheck, &stateCheck, &clockPurity, &leakCheck,
		&shareCheck, &allocCheck, &purity,
		&streamFlow, &detFlow, &nonNeg,
	}
}
