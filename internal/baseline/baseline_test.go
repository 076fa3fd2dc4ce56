package baseline

import (
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

func genInstance(t *testing.T, seed int64, fill float64) *cluster.Placement {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Machines = 12
	cfg.Shards = 150
	cfg.TargetFill = fill
	cfg.Seed = seed
	inst, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Placement
}

func TestGreedyImproves(t *testing.T) {
	p := genInstance(t, 1, 0.7)
	res := Greedy(p, Config{})
	if res.After.MaxUtil > res.Before.MaxUtil+1e-9 {
		t.Errorf("greedy worsened max util: %.4f → %.4f", res.Before.MaxUtil, res.After.MaxUtil)
	}
	if res.After.Imbalance >= res.Before.Imbalance {
		t.Errorf("greedy did not improve imbalance: %.4f → %.4f",
			res.Before.Imbalance, res.After.Imbalance)
	}
	if !res.Final.Feasible() {
		t.Error("greedy final placement infeasible")
	}
}

func TestGreedyPlanReplays(t *testing.T) {
	p := genInstance(t, 2, 0.7)
	res := Greedy(p, Config{})
	got, err := res.Plan.Validate(p)
	if err != nil {
		t.Fatalf("greedy schedule invalid: %v", err)
	}
	for s := 0; s < p.Cluster().NumShards(); s++ {
		id := cluster.ShardID(s)
		if got.Home(id) != res.Final.Home(id) {
			t.Fatalf("greedy plan diverges at shard %d", s)
		}
	}
}

func TestGreedyInputUntouched(t *testing.T) {
	p := genInstance(t, 4, 0.7)
	before := p.Assignment()
	Greedy(p, Config{})
	for s, m := range p.Assignment() {
		if before[s] != m {
			t.Fatal("greedy mutated its input")
		}
	}
}

func TestLocalSearchAtLeastAsGoodAsGreedy(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := genInstance(t, seed, 0.85)
		g := Greedy(p, Config{})
		ls := LocalSearch(p, Config{AllowSwaps: true})
		if ls.After.MaxUtil > g.After.MaxUtil+1e-9 {
			t.Errorf("seed %d: local search (%.4f) worse than greedy (%.4f)",
				seed, ls.After.MaxUtil, g.After.MaxUtil)
		}
	}
}

func TestLocalSearchPlanReplays(t *testing.T) {
	p := genInstance(t, 6, 0.88)
	res := LocalSearch(p, Config{AllowSwaps: true})
	got, err := res.Plan.Validate(p)
	if err != nil {
		t.Fatalf("local search schedule invalid: %v", err)
	}
	for s := 0; s < p.Cluster().NumShards(); s++ {
		id := cluster.ShardID(s)
		if got.Home(id) != res.Final.Home(id) {
			t.Fatalf("plan diverges at shard %d", s)
		}
	}
}

func TestSwapUnlocksTightInstance(t *testing.T) {
	// Two machines, each statically full, loads 9 vs 3: no single move
	// fits anywhere, but swapping s0 (load 6, size 4) for s2 (load 1,
	// size 2) is impossible too (no slack). Add slack on m1 so the swap
	// order s2→m0? — construct so only a swap (not a move) helps:
	// m0: s0 (static 3, load 6), s1 (static 3, load 3) — util 9, free 2
	// m1: s2 (static 3, load 1), s3 (static 3, load 2) — util 3, free 2
	// Moving any shard (static 3) nowhere fits (free 2). Swap s1↔s2
	// needs 3 ≤ free 2 — also stuck? No: serial order impossible. So use
	// free 3 on each side: caps 9.
	c := &cluster.Cluster{
		Machines: []cluster.Machine{
			{ID: 0, Capacity: vec.Uniform(9), Speed: 1},
			{ID: 1, Capacity: vec.Uniform(9), Speed: 1},
		},
		Shards: []cluster.Shard{
			{ID: 0, Static: vec.Uniform(3), Load: 6},
			{ID: 1, Static: vec.Uniform(3), Load: 3},
			{ID: 2, Static: vec.Uniform(3), Load: 1},
			{ID: 3, Static: vec.Uniform(3), Load: 2},
		},
	}
	p, err := cluster.FromAssignment(c, []cluster.MachineID{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy: moving s1 (load 3) to m1 gives m1 util 6 < 9 — feasible
	// (free 3). So greedy alone improves; push further: local search with
	// swaps should reach a strictly better makespan than pure greedy.
	g := Greedy(p, Config{})
	ls := LocalSearch(p, Config{AllowSwaps: true})
	if ls.After.MaxUtil > g.After.MaxUtil+1e-9 {
		t.Errorf("swaps should not hurt: %.4f vs %.4f", ls.After.MaxUtil, g.After.MaxUtil)
	}
	if ls.After.MaxUtil >= p.Utilization(0) {
		t.Errorf("local search failed to improve hot machine: %.4f", ls.After.MaxUtil)
	}
}

func TestVacancyBudgetRespected(t *testing.T) {
	// One vacant machine and Keep=1: baselines must not occupy it.
	c := &cluster.Cluster{
		Machines: []cluster.Machine{
			{ID: 0, Capacity: vec.Uniform(10), Speed: 1},
			{ID: 1, Capacity: vec.Uniform(10), Speed: 1},
			{ID: 2, Capacity: vec.Uniform(10), Speed: 1, Exchange: true},
		},
		Shards: []cluster.Shard{
			{ID: 0, Static: vec.Uniform(2), Load: 5},
			{ID: 1, Static: vec.Uniform(2), Load: 4},
			{ID: 2, Static: vec.Uniform(2), Load: 1},
		},
	}
	p, _ := cluster.FromAssignment(c, []cluster.MachineID{0, 0, 1})
	for _, run := range []func() *Result{
		func() *Result { return Greedy(p, Config{Keep: 1}) },
		func() *Result { return LocalSearch(p, Config{Keep: 1, AllowSwaps: true}) },
	} {
		res := run()
		if res.Final.NumVacant() < 1 {
			t.Error("vacancy budget violated")
		}
		if !res.Final.IsVacant(2) {
			t.Error("the only vacant machine should remain vacant")
		}
	}
	// With Keep=0 the vacant machine is fair game and helps.
	res := Greedy(p, Config{Keep: 0})
	if res.Final.IsVacant(2) {
		t.Error("with no budget the vacant machine should be used")
	}
}

// TestGreedyStepwiseMonotone replays the greedy schedule step by step and
// asserts the hottest-machine utilization never rises — the invariant the
// algorithm is built on.
func TestGreedyStepwiseMonotone(t *testing.T) {
	p := genInstance(t, 7, 0.8)
	res := Greedy(p, Config{})
	w := p.Clone()
	c := p.Cluster()
	hottest := func() float64 {
		maxU := 0.0
		for m := 0; m < c.NumMachines(); m++ {
			id := cluster.MachineID(m)
			if w.IsVacant(id) {
				continue
			}
			if u := w.Utilization(id); u > maxU {
				maxU = u
			}
		}
		return maxU
	}
	prev := hottest()
	for i, mv := range res.Plan.Moves {
		if !w.CanPlace(mv.S, mv.To) {
			t.Fatalf("step %d transiently infeasible", i)
		}
		w.Move(mv.S, mv.To)
		cur := hottest()
		if cur > prev+1e-9 {
			t.Fatalf("step %d raised peak utilization %v → %v", i, prev, cur)
		}
		prev = cur
	}
}

// TestLocalSearchTerminates bounds the schedule length even with swaps on
// a pathological uniform instance (no infinite swap loops).
func TestLocalSearchTerminates(t *testing.T) {
	c := &cluster.Cluster{}
	for m := 0; m < 6; m++ {
		c.Machines = append(c.Machines, cluster.Machine{
			ID: cluster.MachineID(m), Capacity: vec.Uniform(100), Speed: 1,
		})
	}
	for s := 0; s < 60; s++ {
		c.Shards = append(c.Shards, cluster.Shard{
			ID: cluster.ShardID(s), Static: vec.Uniform(1), Load: 1,
		})
	}
	assign := make([]cluster.MachineID, 60)
	for s := range assign {
		assign[s] = cluster.MachineID(s % 3) // three machines loaded, three empty
	}
	p, err := cluster.FromAssignment(c, assign)
	if err != nil {
		t.Fatal(err)
	}
	res := LocalSearch(p, Config{AllowSwaps: true})
	if res.Plan.NumMoves() > 4*60 {
		t.Errorf("schedule suspiciously long: %d moves", res.Plan.NumMoves())
	}
	if res.After.MaxUtil > res.Before.MaxUtil {
		t.Error("local search worsened balance")
	}
}

func TestGreedyOnEmptyCluster(t *testing.T) {
	c := &cluster.Cluster{
		Machines: []cluster.Machine{{ID: 0, Capacity: vec.Uniform(1), Speed: 1}},
	}
	p := cluster.NewPlacement(c)
	res := Greedy(p, Config{})
	if res.Plan.NumMoves() != 0 {
		t.Error("nothing to move on an empty cluster")
	}
}
