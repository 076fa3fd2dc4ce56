package cluster

import (
	"math/rand"
	"testing"

	"rexchange/internal/vec"
)

// groupCluster builds 3 machines and a replicated shard pair (group 1)
// plus one free shard.
func groupCluster() *Cluster {
	return &Cluster{
		Machines: []Machine{
			{ID: 0, Capacity: vec.Uniform(10), Speed: 1},
			{ID: 1, Capacity: vec.Uniform(10), Speed: 1},
			{ID: 2, Capacity: vec.Uniform(10), Speed: 1},
		},
		Shards: []Shard{
			{ID: 0, Static: vec.Uniform(1), Load: 2, Group: 1},
			{ID: 1, Static: vec.Uniform(1), Load: 2, Group: 1},
			{ID: 2, Static: vec.Uniform(1), Load: 1},
		},
	}
}

func TestAntiAffinityCanPlace(t *testing.T) {
	c := groupCluster()
	p := NewPlacement(c)
	if err := p.Place(0, 0); err != nil {
		t.Fatal(err)
	}
	if p.CanPlace(1, 0) {
		t.Error("replica must not co-locate with its sibling")
	}
	if !p.CanPlace(1, 1) {
		t.Error("replica should fit on another machine")
	}
	if !p.CanPlace(2, 0) {
		t.Error("ungrouped shard is unaffected by the group")
	}
	if p.GroupCount(0, 1) != 1 || p.GroupCount(1, 1) != 0 {
		t.Errorf("group counts wrong: %d/%d", p.GroupCount(0, 1), p.GroupCount(1, 1))
	}
}

func TestAntiAffinityMoveBookkeeping(t *testing.T) {
	c := groupCluster()
	p, err := FromAssignment(c, []MachineID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible() {
		t.Fatal("spread replicas should be feasible")
	}
	p.Move(0, 2) // shard 0 joins machine 2 (with ungrouped shard 2) — fine
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.CanPlace(1, 2) {
		t.Error("machine 2 now hosts group 1")
	}
	p.Move(0, 0) // back
	if !p.CanPlace(1, 2) {
		t.Error("group count not released after move away")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFeasibleDetectsCollocatedReplicas(t *testing.T) {
	c := groupCluster()
	// Force both replicas onto machine 0 via unchecked ops.
	p, err := FromAssignment(c, []MachineID{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Feasible() {
		t.Error("co-located replicas must be infeasible")
	}
}

func TestCloneCopiesGroups(t *testing.T) {
	c := groupCluster()
	p, _ := FromAssignment(c, []MachineID{0, 1, 2})
	q := p.Clone()
	q.Move(0, 2)
	if p.GroupCount(2, 1) != 0 {
		t.Error("clone group mutation leaked")
	}
	if q.GroupCount(2, 1) != 1 {
		t.Error("clone lost group move")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

// replicatedFleet builds 8 machines in two partitions (machines 0–3 and
// 4–7) and 30 shards: six groups of two replicas, four groups of three, six
// ungrouped. Replicas start on consecutive machines, so the groups whose
// run crosses the 3|4 boundary are split across the partitions. Capacities
// are tight enough that the capacity half of CanPlace says no too.
func replicatedFleet(t *testing.T) (*Placement, [2][]MachineID) {
	t.Helper()
	c := &Cluster{}
	for m := 0; m < 8; m++ {
		c.Machines = append(c.Machines, Machine{ID: MachineID(m), Capacity: vec.Uniform(10), Speed: 1})
	}
	var assign []MachineID
	add := func(group, replicas int) {
		for r := 0; r < replicas; r++ {
			s := len(c.Shards)
			c.Shards = append(c.Shards, Shard{
				ID: ShardID(s), Static: vec.Uniform(float64(1 + s%3)), Load: float64(1 + s%5), Group: group,
			})
			assign = append(assign, MachineID(s%8))
		}
	}
	for g := 1; g <= 6; g++ {
		add(10*g, 2) // group IDs need not be dense
	}
	for g := 7; g <= 10; g++ {
		add(10*g, 3)
	}
	for i := 0; i < 6; i++ {
		add(0, 1)
	}
	p, err := FromAssignment(c, assign)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible() {
		t.Fatal("fixture must start feasible")
	}
	return p, [2][]MachineID{{0, 1, 2, 3}, {4, 5, 6, 7}}
}

// TestGroupQueriesMatchRecount drives a few thousand random checked
// placements, removals and moves — inside and outside undo scopes, with
// both commits and rollbacks — over a replicated fleet, and after every
// step holds GroupCount and CanPlace to a from-scratch count over
// Assignment(): on the placement itself, on a Clone, and (between scopes;
// a view cannot be taken mid-transaction) on the two partitions' views.
func TestGroupQueriesMatchRecount(t *testing.T) {
	p, parts := replicatedFleet(t)
	c := p.Cluster()
	ns, nm := c.NumShards(), c.NumMachines()

	split := false
	for s := 1; s < ns; s++ {
		a, b := &c.Shards[s-1], &c.Shards[s]
		if a.Group != 0 && a.Group == b.Group && (p.Home(a.ID) < 4) != (p.Home(b.ID) < 4) {
			split = true
		}
	}
	if !split {
		t.Fatal("fixture has no group split across the two partitions")
	}

	// check holds q, which knows global shards[i] and machines[j] by the
	// local IDs i and j, to the recount over p's assignment.
	check := func(step int, label string, q *Placement, shards []ShardID, machines []MachineID) {
		t.Helper()
		assign := p.Assignment()
		for lm, gm := range machines {
			hosted := map[int]int{} // group → replicas on gm, counted from scratch
			for s, h := range assign {
				if h == gm {
					hosted[c.Shards[s].Group]++
				}
			}
			for ls, gs := range shards {
				sh := &c.Shards[gs]
				if got := q.GroupCount(MachineID(lm), sh.Group); sh.Group != 0 && got != hosted[sh.Group] {
					t.Fatalf("step %d, %s: GroupCount(machine %d, group %d) = %d, recount %d",
						step, label, gm, sh.Group, got, hosted[sh.Group])
				}
				want := (sh.Group == 0 || hosted[sh.Group] == 0) &&
					sh.Static.FitsWithin(p.Used(gm), c.Machines[gm].Capacity)
				got := q.CanPlace(ShardID(ls), MachineID(lm))
				if got != want {
					t.Fatalf("step %d, %s: CanPlace(shard %d, machine %d) = %v, recount says %v",
						step, label, gs, gm, got, want)
				}
				if got && sh.Group != 0 && assign[gs] == gm {
					t.Fatalf("step %d, %s: grouped shard %d can be placed on its own home %d",
						step, label, gs, gm)
				}
			}
		}
	}
	allShards := make([]ShardID, ns)
	for s := range allShards {
		allShards[s] = ShardID(s)
	}
	allMachines := append(append([]MachineID(nil), parts[0]...), parts[1]...)

	r := rand.New(rand.NewSource(20))
	var snap *Placement
	commits, rollbacks := 0, 0
	for step := 0; step < 3000; step++ {
		s, m := ShardID(r.Intn(ns)), MachineID(r.Intn(nm))
		switch op := r.Intn(10); {
		case op < 3:
			p.PlaceChecked(s, m)
		case op < 5:
			if p.Home(s) != Unassigned {
				if err := p.Remove(s); err != nil {
					t.Fatal(err)
				}
			}
		case op < 8:
			if p.CanPlace(s, m) {
				p.Move(s, m)
			}
		case !p.InTxn():
			snap = p.Clone()
			p.BeginTxn()
		case op == 8:
			p.Commit()
			commits++
		default:
			p.Rollback()
			rollbacks++
			mustEqualPlacements(t, "after rollback", p, snap)
		}

		check(step, "placement", p, allShards, allMachines)
		check(step, "clone", p.Clone(), allShards, allMachines)
		if !p.InTxn() {
			for _, part := range parts {
				v, err := NewPlacementView(p, part)
				if err != nil {
					t.Fatal(err)
				}
				check(step, "view", v.Sub(), v.shards, v.machines)
			}
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if commits < 20 || rollbacks < 20 {
		t.Fatalf("walk closed only %d commits and %d rollbacks", commits, rollbacks)
	}
}
