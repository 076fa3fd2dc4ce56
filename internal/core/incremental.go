package core

import (
	"math"

	"rexchange/internal/cluster"
)

// This file maintains the solver objective incrementally across LNS
// iterations. Together with the placement undo journal
// (cluster.Placement.BeginTxn/Rollback) it forms the delta kernel: an
// iteration no longer clones the placement or rescans every shard and
// machine — it journals the neighborhood's mutations, refreshes derived
// state for exactly the entities touched, and rolls both back on
// rejection.
//
// Equivalence contract: evalIncremental must return the *same bits* as the
// reference implementation (objective, objective.go) on every evaluation,
// so that the delta kernel cannot change search trajectories. That rules
// out maintaining the sum-of-squares accumulator itself as a running float
// delta (float addition is not associative; drift would eventually flip an
// annealing acceptance). Instead the kernel maintains the per-machine
// utilization *terms* as deltas — each u[m] holds exactly the bits
// objective would compute, zeroed while the machine is vacant — and reduces
// them with the same left-to-right addition order the reference uses. The
// reduction is a division-free, branch-free array sum (adding a vacant
// machine's +0.0 term is bit-neutral because every partial sum is ≥ +0.0),
// which is an order of magnitude cheaper than the reference scan; the
// moved-shard count is an integer maintained in O(1); and maxU is tracked
// lazily, rescanned only after the machine attaining it lost load. Under
// -tags debugasserts the solver cross-checks the bits against the
// reference on every accepted evaluation.
type objState struct {
	// u[m] is machine m's utilization term, bit-equal to the
	// load/speed the reference objective computes, and exactly 0 while
	// m is vacant (the reference skips vacant machines).
	u []float64

	// maxU is the maximum of u (floored at 0, matching the reference
	// accumulator's zero start) and maxM a machine attaining it, valid
	// only while !maxDirty. A drop on the attaining machine marks the
	// maximum dirty; the next evaluation rescans.
	maxU     float64
	maxM     int
	maxDirty bool

	// moved[s] records whether shard s currently sits away from its
	// initial machine; movedN is the count of set entries.
	moved  []bool
	movedN int
}

// initIncremental builds the objective state from the current placement.
func (st *state) initIncremental() {
	c := st.cur.Cluster()
	o := &st.obj
	o.u = make([]float64, c.NumMachines())
	o.moved = make([]bool, c.NumShards())
	o.movedN = 0
	for m := range o.u {
		id := cluster.MachineID(m)
		if !st.cur.IsVacant(id) {
			o.u[m] = st.cur.Load(id) / c.Machines[m].Speed
		}
	}
	o.rescanMax()
	for s := range o.moved {
		if st.cur.Home(cluster.ShardID(s)) != st.initial[s] {
			o.moved[s] = true
			o.movedN++
		}
	}
}

// rescanMax recomputes the lazy maximum with the same comparison sequence
// as the reference objective (zero start, strict greater-than).
//
//rexlint:noalloc
func (o *objState) rescanMax() {
	maxU, maxM := 0.0, -1
	for m, v := range o.u {
		if v > maxU {
			maxU, maxM = v, m
		}
	}
	o.maxU, o.maxM, o.maxDirty = maxU, maxM, false
}

// refreshMachine re-derives machine m's utilization term from the placement
// and folds it into the lazy maximum. Idempotent: refreshing a machine
// twice with unchanged load is a no-op, so callers may replay a journal
// with duplicate machine entries.
//
//rexlint:noalloc
func (st *state) refreshMachine(m cluster.MachineID) {
	var u float64
	if !st.cur.IsVacant(m) {
		u = st.cur.Load(m) / st.cur.Cluster().Machines[m].Speed
	}
	o := &st.obj
	old := o.u[m]
	o.u[m] = u
	if u > o.maxU {
		// strictly above every term (maxU is an upper bound even while
		// dirty): m is the new argmax and the maximum is clean again
		o.maxU, o.maxM, o.maxDirty = u, int(m), false
	} else if int(m) == o.maxM && u < old {
		o.maxDirty = true
	}
}

// refreshShard re-derives shard s's moved flag, adjusting the count.
// Idempotent like refreshMachine.
//
//rexlint:noalloc
func (st *state) refreshShard(s cluster.ShardID) {
	now := st.cur.Home(s) != st.initial[s]
	o := &st.obj
	if now != o.moved[s] {
		o.moved[s] = now
		if now {
			o.movedN++
		} else {
			o.movedN--
		}
	}
}

// syncTouched refreshes the derived state for every (shard, machine) pair
// in the placement's journal. Called after a successful repair, before
// evaluating the neighborhood.
//
//rexlint:noalloc
func (st *state) syncTouched() {
	for i, n := 0, st.cur.TxnLen(); i < n; i++ {
		s, m := st.cur.TxnOp(i)
		st.refreshShard(s)
		st.refreshMachine(m)
	}
}

// saveObjState snapshots the lazy-maximum triple at transaction start; the
// remaining objective state is restored by replaying the journal against the
// rolled-back placement (the refresh helpers are pure functions of it).
func (st *state) saveObjState() {
	st.savedMaxU, st.savedMaxM, st.savedMaxDirty = st.obj.maxU, st.obj.maxM, st.obj.maxDirty
}

// rollbackIncremental undoes a rejected neighborhood: the placement journal
// is rolled back, the lazy maximum restored from its transaction-start
// snapshot, and every touched entity re-derived from the (bit-exactly
// restored) placement — the journal stays readable after Rollback, so the
// same walk serves. A neighborhood whose repair failed was never synced; for
// it the restore and the refreshes find nothing to change.
//
//rexlint:noalloc
func (st *state) rollbackIncremental() {
	st.cur.Rollback()
	st.obj.maxU, st.obj.maxM, st.obj.maxDirty = st.savedMaxU, st.savedMaxM, st.savedMaxDirty
	st.syncTouched()
}

// evalIncremental returns the solver objective of the current placement,
// bit-identical to objective(st.cur, cfg.SpreadWeight, cfg.MovePenalty,
// st.initial) but without rescanning shards or dividing per machine.
//
//rexlint:noalloc
func (st *state) evalIncremental() float64 {
	o := &st.obj
	if o.maxDirty {
		o.rescanMax()
	}
	sumSq := 0.0
	for _, v := range o.u {
		sumSq += v * v
	}
	obj := o.maxU
	c := st.cur.Cluster()
	if serving := c.NumMachines() - st.cur.NumVacant(); serving > 0 {
		obj += st.cfg.SpreadWeight * math.Sqrt(sumSq/float64(serving))
	}
	if st.initial != nil && st.cfg.MovePenalty > 0 && c.NumShards() > 0 {
		obj += st.cfg.MovePenalty * float64(o.movedN) / float64(c.NumShards())
	}
	return obj
}
