package lint

// Purity enforces declared side-effect contracts. A function declared
//
//	//rexlint:pure
//
// must classify as "pure" (pure < reads-receiver < mutates-receiver <
// global-effect): no receiver or parameter mutation, no package-level
// writes, no wall-clock reads, no blocking, and no dynamic calls (through a
// func value or an interface). Allocation alone is allowed — a pure
// function may build and return a fresh value. Its own sites are checked,
// and each module callee one hop deep, as alloccheck reads them: a
// //rexlint:pure callee is trusted, any other callee's own effects are
// mapped onto the caller through the call's receiver and argument
// operands, and a callee that calls module functions itself is named and
// asked for the directive.
var Purity = &Analyzer{
	Name: "purity",
	Doc:  "require //rexlint:pure functions to have no observable side effects, reading unannotated callees one hop deep",
	Run:  runPurity,
}

// impureBits are the effects a //rexlint:pure function must not have.
const impureBits = EffClock | EffBlock | EffGlobal | EffMutatesRecv | EffMutatesParam | EffUnknown

func runPurity(pass *Pass) error {
	for _, node := range pass.Prog.NodesOf(pass.pkg()) {
		if !node.DeclaredPure {
			continue
		}
		effs, deep := pass.Prog.oneHop(node, func(c *FuncNode) bool { return c.DeclaredPure })
		var mask uint16
		for _, e := range effs {
			mask |= e.bit
		}
		if mask&impureBits != 0 {
			what, e := describeImpurity(effs, mask)
			pos := node.Pos()
			if e != nil {
				pos = e.at()
			}
			pass.Reportf(pos, "%s is declared //rexlint:pure but is %s: %s%s",
				node.Name(), purityClass(mask), what, e.chain())
		}
		for _, site := range deep {
			pass.Reportf(site.Pos, "%s is declared //rexlint:pure but calls %s, which calls module functions; declare it //rexlint:pure",
				node.Name(), site.Callee.Name())
		}
	}
	return nil
}

// purityClass maps an effect mask onto the four-level classification.
// Parameter mutation classifies with receiver mutation (both are
// caller-visible writes through the signature).
func purityClass(mask uint16) string {
	switch {
	case mask&(EffGlobal|EffUnknown|EffClock|EffBlock) != 0:
		return "global-effect"
	case mask&(EffMutatesRecv|EffMutatesParam) != 0:
		return "mutates-receiver"
	case mask&EffReadsRecv != 0:
		return "reads-receiver"
	default:
		return "pure"
	}
}

// describeImpurity picks the most severe violated bit and, for the bits
// that name a site, its first effect.
func describeImpurity(effs []effect, mask uint16) (string, *effect) {
	switch {
	case mask&EffUnknown != 0:
		e := firstOf(effs, EffUnknown)
		return "it contains " + e.what, e
	case mask&EffClock != 0:
		e := firstOf(effs, EffClock)
		return "it reads the wall clock (" + e.what + ")", e
	case mask&EffBlock != 0:
		e := firstOf(effs, EffBlock)
		return "it may block (" + e.what + ")", e
	case mask&EffGlobal != 0:
		return "it has package-level effects", nil
	case mask&EffMutatesRecv != 0:
		return "it mutates its receiver", nil
	default:
		return "it writes through a parameter", nil
	}
}
