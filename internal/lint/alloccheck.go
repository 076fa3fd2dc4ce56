package lint

// AllocCheck certifies the zero-alloc hot path. A function declared
//
//	//rexlint:noalloc
//
// in its doc comment must be provably allocation-free on every reachable
// path, through every module-local callee. The summary engine (summary.go)
// supplies the proof obligations: allocation sites are make/new, slice and
// map literals, &composite literals, append (potential growth), string
// concatenation and copying conversions, capturing closures (a literal that
// captures variables allocates unless the call containing it invokes it in
// place), interface boxing, and goroutine spawns; stdlib callees allocate
// unless allowlisted; dynamic calls with no resolvable target are unprovable and
// reported as such. Violations name the allocating call chain
// ("via a → b") and the root site.
//
// Two sanctioned outs: `//rexlint:ignore alloccheck <reason>` on a leaf
// site waives it for the whole chain (amortized append growth into a
// pre-sized scratch buffer is the intended use), and debug-assertion
// blocks guarded by a named boolean constant are folded away entirely.
var AllocCheck = &Analyzer{
	Name: "alloccheck",
	Doc:  "require //rexlint:noalloc functions to be allocation-free on every path, callees included; name the allocating chain",
	Run:  runAllocCheck,
}

func runAllocCheck(pass *Pass) error {
	for _, node := range pass.Prog.NodesOf(pass.pkg()) {
		if !node.NoAlloc {
			continue
		}
		sum := pass.Prog.SummaryOf(node)
		if sum.Mask&EffAlloc != 0 {
			tr := sum.Alloc
			if tr == nil {
				tr = &Trace{Pos: node.Pos(), What: "allocation", EntryPos: node.Pos()}
			}
			if len(tr.Via) == 0 {
				pass.Reportf(tr.EntryPos, "%s is declared //rexlint:noalloc but allocates: %s", node.Name(), tr.What)
			} else {
				pass.Reportf(tr.EntryPos, "%s is declared //rexlint:noalloc but allocates: %s at %s%s",
					node.Name(), tr.What, pass.Fset.Position(tr.Pos), tr.Chain())
			}
		}
		if sum.Mask&EffUnknown != 0 {
			tr := sum.Unknown
			if tr == nil {
				tr = &Trace{Pos: node.Pos(), What: "dynamic call", EntryPos: node.Pos()}
			}
			pass.Reportf(tr.EntryPos, "%s is declared //rexlint:noalloc but cannot be proven: %s%s",
				node.Name(), tr.What, tr.Chain())
		}
	}
	return nil
}
