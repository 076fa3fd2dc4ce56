package cluster

import (
	"fmt"

	"rexchange/internal/vec"
)

// CheckInvariants verifies every structural invariant a Placement must hold
// at any quiescent point, including mid-solve states where shards are
// unassigned (a partially destroyed LNS neighborhood is legal; an
// inconsistent one is not):
//
//   - the incrementally maintained aggregates (used, load, on, pos,
//     unassigned, vacant) agree with a from-scratch recomputation;
//   - every machine's resource usage is non-negative and within capacity
//     (plus the shared floating-point drift tolerance);
//   - no machine hosts two replicas of the same anti-affinity group.
//
// Unlike Feasible, which answers "is this a complete, servable placement",
// CheckInvariants answers "has the bookkeeping been corrupted" — it is the
// predicate behind the debugasserts hooks in the solver, the planner, and
// the simulator.
func (p *Placement) CheckInvariants() error {
	if err := p.Validate(); err != nil {
		return err
	}
	for m := range p.used {
		if !p.used[m].NonNegative() {
			return fmt.Errorf("cluster: machine %d used %v has a negative dimension", m, p.used[m])
		}
		limit := p.c.Machines[m].Capacity.Add(vec.Uniform(vec.FitEps))
		if !p.used[m].LEQ(limit) {
			return fmt.Errorf("cluster: machine %d used %v exceeds capacity %v",
				m, p.used[m], p.c.Machines[m].Capacity)
		}
	}
	if m, g, n := p.replicaCollision(); n > 0 {
		return fmt.Errorf("cluster: machine %d hosts %d replicas of group %d", m, n, g)
	}
	return nil
}

// MustInvariants panics if CheckInvariants fails, prefixing the panic with
// context (typically the operator that just ran). It is intended to be
// called behind the DebugAsserts flag:
//
//	if cluster.DebugAsserts {
//		p.MustInvariants("repair swapGreedy")
//	}
func (p *Placement) MustInvariants(context string) {
	if err := p.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("invariant violation after %s: %v", context, err))
	}
}
