package lint

// Generic worklist dataflow solver over the CFGs of cfg.go. Analyzers
// supply the lattice (join, equality), the entry fact, and a per-node
// transfer function; the solver handles fixpoint iteration.
//
// Only blocks reachable from the start block are visited, and a block's
// input joins only over predecessors whose output has already been
// computed. That makes must-analyses (intersection joins) come out right
// without a distinguished TOP element: unreachable or not-yet-computed
// paths simply contribute nothing.

import "go/ast"

// Flow defines one dataflow problem. F is the fact type; implementations
// must treat facts as immutable (Transfer and Join return fresh values or
// shared unmodified ones).
type Flow[F any] interface {
	// Entry is the fact at function entry.
	Entry() F
	// Join merges facts at control-flow merges.
	Join(a, b F) F
	// Equal reports fact equality; the fixpoint terminates when all block
	// outputs stop changing under Equal.
	Equal(a, b F) bool
	// Transfer applies one straight-line node to a fact.
	Transfer(n ast.Node, in F) F
}

// EdgeRefiner is an optional extension of Flow: when implemented, facts
// are refined per edge as they propagate, letting an analysis exploit
// branch conditions (e.g. `state == Pending` on an if or switch edge).
type EdgeRefiner[F any] interface {
	Refine(e Edge, f F) F
}

// Forward solves a forward dataflow problem over g and returns each
// block's input fact. Blocks absent from the map were unreachable.
func Forward[F any](g *CFG, fl Flow[F]) map[*Block]F {
	refiner, _ := fl.(EdgeRefiner[F])

	in := make(map[*Block]F)
	out := make(map[*Block]F)

	transferBlock := func(b *Block, f F) F {
		for _, n := range b.Nodes {
			f = fl.Transfer(n, f)
		}
		return f
	}

	// blockIn recomputes b's input: the entry fact for the entry block,
	// joined with every computed predecessor's refined output.
	blockIn := func(b *Block) (F, bool) {
		var acc F
		have := false
		if b == g.Entry {
			acc, have = fl.Entry(), true
		}
		for _, p := range b.Preds {
			po, ok := out[p]
			if !ok {
				continue
			}
			for _, e := range p.Succs {
				if e.To != b {
					continue
				}
				f := po
				if refiner != nil {
					f = refiner.Refine(e, f)
				}
				if !have {
					acc, have = f, true
				} else {
					acc = fl.Join(acc, f)
				}
			}
		}
		return acc, have
	}

	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		bin, ok := blockIn(b)
		if !ok {
			continue
		}
		bout := transferBlock(b, bin)
		old, seen := out[b]
		if seen && fl.Equal(old, bout) {
			in[b] = bin
			continue
		}
		in[b], out[b] = bin, bout
		for _, e := range b.Succs {
			if !queued[e.To] {
				queued[e.To] = true
				work = append(work, e.To)
			}
		}
	}
	return in
}

// replay solves fl over g, then walks every reachable block in index order
// and shows visit each straight-line node with the fact that holds just
// before it. This is the reporting pass of every flow-sensitive analyzer —
// facts are solved to a fixpoint first, diagnostics are emitted once
// afterwards.
func replay[F any](g *CFG, fl Flow[F], visit func(n ast.Node, before F)) {
	in := Forward(g, fl)
	for _, b := range g.Blocks {
		f, ok := in[b]
		if !ok {
			continue // unreachable
		}
		for _, n := range b.Nodes {
			visit(n, f)
			f = fl.Transfer(n, f)
		}
	}
}
