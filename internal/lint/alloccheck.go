package lint

// AllocCheck certifies the zero-alloc hot path. A function declared
//
//	//rexlint:noalloc
//
// in its doc comment must be allocation-free on every reachable path. Its
// own sites are checked, and so is each module callee one hop deep: a
// callee that is itself //rexlint:noalloc is trusted, since it is checked on
// its own; any other callee's own sites are read at the call, and if that
// callee calls module functions itself, the finding names it and asks for
// the directive. Allocation sites are make/new, slice and map literals,
// &composite literals, append (potential growth), string concatenation and
// copying conversions, capturing closures (a literal that captures
// variables allocates unless the call containing it invokes it in place),
// interface boxing, and goroutine spawns; stdlib callees allocate unless
// allowlisted; dynamic calls (through a func value or an interface) are
// unprovable and reported as such. A callee's site is named with the
// callee ("via f").
//
// Two sanctioned outs: `//rexlint:ignore alloccheck <reason>` on a site
// waives it for its callers too (amortized append growth into a pre-sized
// scratch buffer is the intended use), and debug-assertion blocks guarded
// by a named boolean constant are folded away entirely.
var AllocCheck = &Analyzer{
	Name: "alloccheck",
	Doc:  "require //rexlint:noalloc functions to be allocation-free on every path, reading unannotated callees one hop deep",
	Run:  runAllocCheck,
}

func runAllocCheck(pass *Pass) error {
	for _, node := range pass.Prog.NodesOf(pass.pkg()) {
		if !node.NoAlloc {
			continue
		}
		effs, deep := pass.Prog.oneHop(node, func(c *FuncNode) bool { return c.NoAlloc })
		if e := firstOf(effs, EffAlloc); e != nil && e.via == nil {
			pass.Reportf(e.pos, "%s is declared //rexlint:noalloc but allocates: %s", node.Name(), e.what)
		} else if e != nil {
			pass.Reportf(e.at(), "%s is declared //rexlint:noalloc but allocates: %s at %s%s",
				node.Name(), e.what, pass.Fset.Position(e.pos), e.chain())
		}
		if e := firstOf(effs, EffUnknown); e != nil {
			pass.Reportf(e.at(), "%s is declared //rexlint:noalloc but cannot be proven: %s%s",
				node.Name(), e.what, e.chain())
		}
		for _, site := range deep {
			pass.Reportf(site.Pos, "%s is declared //rexlint:noalloc but calls %s, which calls module functions; declare it //rexlint:noalloc",
				node.Name(), site.Callee.Name())
		}
	}
	return nil
}
