package cluster

import (
	"fmt"
	"math"
)

// PlacementView is a partition-scoped projection of a parent placement: a
// self-contained sub-cluster and sub-placement covering exactly one machine
// subset and the shards currently hosted on it. The partitioned parallel
// solver builds one view per partition and solves each view's placement
// concurrently; because a view materializes its own Cluster and Placement
// (no pointer into the parent survives construction), partition solvers
// share no mutable state — the property rexlint's sharecheck certifies via
// the //rexlint:owned annotations on both Placement and PlacementView.
//
// Bit-exactness contract: the projection copies the parent's per-machine
// aggregates (used, load) bit-for-bit and preserves each machine's hosted-
// shard order, rather than recomputing them, so the sub-placement is
// observationally identical to the parent restricted to the partition. In
// particular, a view over *all* machines is bit-identical to the parent
// placement itself, which is what makes the single-partition path of
// core.SolvePartitioned provably equal to core.Solve (the partition-closed
// golden test).
//
// Local IDs are dense: machine i of Machines() is sub-cluster machine i,
// and the partition's shards are renumbered 0..n-1 in ascending global-ID
// order (so an all-machines view is the identity mapping).
//
//rexlint:owned
type PlacementView struct {
	sub      *Placement
	machines []MachineID // global machine IDs, ascending; index = local ID
	shards   []ShardID   // global shard IDs, ascending; index = local ID
}

// NewPlacementView projects parent onto the given machine subset. The
// machine list must be non-empty, sorted ascending, duplicate-free, and in
// range; every shard hosted on one of the machines joins the view. The
// parent is read, never retained: subsequent parent mutations do not
// affect the view and vice versa. Parent placements with an active
// transaction are rejected (the journal cannot be projected).
func NewPlacementView(parent *Placement, machines []MachineID) (*PlacementView, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("cluster: view needs at least one machine")
	}
	if parent.InTxn() {
		return nil, fmt.Errorf("cluster: cannot view a placement mid-transaction")
	}
	c := parent.Cluster()
	for i, m := range machines {
		if m < 0 || int(m) >= len(c.Machines) {
			return nil, fmt.Errorf("cluster: view machine %d out of range", m)
		}
		if i > 0 && machines[i-1] >= m {
			return nil, fmt.Errorf("cluster: view machines must be ascending and distinct (got %d after %d)",
				m, machines[i-1])
		}
	}

	v := &PlacementView{machines: append([]MachineID(nil), machines...)}

	// Enumerate the partition's shards in ascending global order so local
	// shard IDs are order-preserving (identity when the view covers the
	// whole fleet).
	inPart := make([]bool, len(c.Machines))
	for _, m := range machines {
		inPart[m] = true
	}
	localShard := make([]ShardID, len(c.Shards))
	for s := range localShard {
		localShard[s] = -1
	}
	for s := 0; s < len(c.Shards); s++ {
		if h := parent.home[s]; h != Unassigned && inPart[h] {
			localShard[s] = ShardID(len(v.shards))
			v.shards = append(v.shards, ShardID(s))
		}
	}

	// Materialize the sub-cluster: machine and shard records copied with
	// IDs rewritten to local indices. Capacities, speeds, static demands,
	// loads, and anti-affinity groups carry over unchanged.
	sc := &Cluster{
		Machines: make([]Machine, len(machines)),
		Shards:   make([]Shard, len(v.shards)),
	}
	for lm, gm := range machines {
		sc.Machines[lm] = c.Machines[gm]
		sc.Machines[lm].ID = MachineID(lm)
	}
	for ls, gs := range v.shards {
		sc.Shards[ls] = c.Shards[gs]
		sc.Shards[ls].ID = ShardID(ls)
	}

	// Project the placement state. Aggregates are copied bit-for-bit and
	// hosted-shard order per machine is preserved — no recomputation, so
	// no floating-point divergence from the parent's incremental history.
	// NewPlacement indexes the sub-cluster's anti-affinity groups: the
	// members hosted in the partition, which are all a CanPlace on one of
	// its machines can collide with. Every shard of sc gets its home below.
	sub := NewPlacement(sc)
	sub.unassigned, sub.vacant = 0, 0
	for lm, gm := range machines {
		sub.used[lm] = parent.used[gm]
		sub.load[lm] = parent.load[gm]
		hosted := parent.on[gm]
		sub.on[lm] = make([]ShardID, len(hosted))
		for i, gs := range hosted {
			ls := localShard[gs]
			sub.on[lm][i] = ls
			sub.home[ls] = MachineID(lm)
			sub.pos[ls] = i
		}
		if len(hosted) == 0 {
			sub.vacant++
		}
	}
	v.sub = sub
	return v, nil
}

// Sub returns the view's scoped placement. The caller owns it for the
// duration of the partition solve; it shares nothing with the parent.
func (v *PlacementView) Sub() *Placement { return v.sub }

// Machines returns the global machine IDs the view covers (ascending; the
// slice is the view's own and must not be mutated).
func (v *PlacementView) Machines() []MachineID { return v.machines }

// NumShards returns the number of shards in the view.
func (v *PlacementView) NumShards() int { return len(v.shards) }

// GlobalMachine translates a local machine ID to the parent's ID space.
func (v *PlacementView) GlobalMachine(m MachineID) MachineID { return v.machines[m] }

// GlobalShard translates a local shard ID to the parent's ID space.
func (v *PlacementView) GlobalShard(s ShardID) ShardID { return v.shards[s] }

// Apply writes a solved partition placement back into parent. final must
// be a complete placement over the view's sub-cluster (typically
// Result.Final of a solve on Sub()); every view shard is moved to its
// final machine, translated to global IDs. Shards outside the view and
// machines outside the partition are untouched. Apply validates shape and
// completeness before mutating, so a failed Apply leaves parent unchanged.
func (v *PlacementView) Apply(parent *Placement, final *Placement) error {
	if final.Cluster().NumShards() != len(v.shards) ||
		final.Cluster().NumMachines() != len(v.machines) {
		return fmt.Errorf("cluster: view apply: placement shape %d/%d does not match view %d/%d",
			final.Cluster().NumShards(), final.Cluster().NumMachines(),
			len(v.shards), len(v.machines))
	}
	if final.UnassignedCount() > 0 {
		return fmt.Errorf("cluster: view apply: %d shards unassigned", final.UnassignedCount())
	}
	for ls := range v.shards {
		lm := final.Home(ShardID(ls))
		parent.Move(v.shards[ls], v.machines[lm])
	}
	return nil
}

// CheckProjection verifies the view against its parent: every partition
// machine's aggregates must match the parent's bit-for-bit and the hosted-
// shard lists must correspond element-for-element under the ID maps. It is
// the partition-scoped analogue of Placement.CheckInvariants and backs the
// debugasserts hooks in the partitioned solver.
func (v *PlacementView) CheckProjection(parent *Placement) error {
	for lm, gm := range v.machines {
		id := MachineID(lm)
		if math.Float64bits(v.sub.load[id]) != math.Float64bits(parent.load[gm]) {
			return fmt.Errorf("cluster: view machine %d load %g diverged from parent machine %d load %g",
				lm, v.sub.load[id], gm, parent.load[gm])
		}
		for d := range v.sub.used[id] {
			if math.Float64bits(v.sub.used[id][d]) != math.Float64bits(parent.used[gm][d]) {
				return fmt.Errorf("cluster: view machine %d used[%d] diverged from parent machine %d", lm, d, gm)
			}
		}
		if len(v.sub.on[id]) != len(parent.on[gm]) {
			return fmt.Errorf("cluster: view machine %d hosts %d shards, parent machine %d hosts %d",
				lm, len(v.sub.on[id]), gm, len(parent.on[gm]))
		}
		for i, ls := range v.sub.on[id] {
			if v.shards[ls] != parent.on[gm][i] {
				return fmt.Errorf("cluster: view machine %d slot %d holds global shard %d, parent holds %d",
					lm, i, v.shards[ls], parent.on[gm][i])
			}
		}
	}
	return v.sub.CheckInvariants()
}
