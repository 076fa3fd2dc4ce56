package plan

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

// mkCluster builds a cluster from parallel capacity/speed and static/load
// definitions (single-dimension capacities replicated across resources).
func mkCluster(caps []float64, statics []float64) *cluster.Cluster {
	c := &cluster.Cluster{}
	for i, cp := range caps {
		c.Machines = append(c.Machines, cluster.Machine{
			ID: cluster.MachineID(i), Capacity: vec.Uniform(cp), Speed: 1,
		})
	}
	for i, st := range statics {
		c.Shards = append(c.Shards, cluster.Shard{
			ID: cluster.ShardID(i), Static: vec.Uniform(st), Load: 1,
		})
	}
	return c
}

func mustPlacement(t *testing.T, c *cluster.Cluster, assign []cluster.MachineID) *cluster.Placement {
	t.Helper()
	p, err := cluster.FromAssignment(c, assign)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func assertRealizes(t *testing.T, p *Plan, from, to *cluster.Placement) {
	t.Helper()
	got, err := p.Validate(from)
	if err != nil {
		t.Fatalf("plan does not replay: %v", err)
	}
	for s := 0; s < from.Cluster().NumShards(); s++ {
		id := cluster.ShardID(s)
		if got.Home(id) != to.Home(id) {
			t.Fatalf("shard %d ends on %d, want %d", s, got.Home(id), to.Home(id))
		}
	}
}

func TestDirectMoves(t *testing.T) {
	c := mkCluster([]float64{10, 10}, []float64{2, 3})
	from := mustPlacement(t, c, []cluster.MachineID{0, 0})
	to := mustPlacement(t, c, []cluster.MachineID{0, 1})
	p, err := DefaultPlanner().Build(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumMoves() != 1 || p.Staged != 0 || p.Displaced != 0 {
		t.Fatalf("plan = %+v, want 1 direct move", p)
	}
	assertRealizes(t, p, from, to)
}

func TestNoMovesNeeded(t *testing.T) {
	c := mkCluster([]float64{10, 10}, []float64{2, 3})
	from := mustPlacement(t, c, []cluster.MachineID{0, 1})
	p, err := DefaultPlanner().Build(from, from)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumMoves() != 0 {
		t.Fatalf("expected empty plan, got %d moves", p.NumMoves())
	}
}

// TestSwapNeedsStaging is the canonical deadlock: two full machines must
// exchange their shards; only a vacant third machine makes it possible.
func TestSwapNeedsStaging(t *testing.T) {
	c := mkCluster([]float64{4, 4, 4}, []float64{4, 4})
	from := mustPlacement(t, c, []cluster.MachineID{0, 1})
	to := mustPlacement(t, c, []cluster.MachineID{1, 0})
	p, err := DefaultPlanner().Build(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if p.Staged == 0 {
		t.Error("swap through a vacant machine must stage")
	}
	if p.NumMoves() != 3 {
		t.Errorf("swap should take 3 moves, got %d", p.NumMoves())
	}
	assertRealizes(t, p, from, to)
}

// TestSwapInfeasibleWithoutVacancy removes the staging machine: the same
// swap must be reported infeasible.
func TestSwapInfeasibleWithoutVacancy(t *testing.T) {
	c := mkCluster([]float64{4, 4}, []float64{4, 4})
	from := mustPlacement(t, c, []cluster.MachineID{0, 1})
	to := mustPlacement(t, c, []cluster.MachineID{1, 0})
	_, err := DefaultPlanner().Build(from, to)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestExchangePreferredForStaging verifies staging picks the borrowed
// exchange machine over an equally roomy regular machine.
func TestExchangePreferredForStaging(t *testing.T) {
	c := mkCluster([]float64{4, 4, 6, 6}, []float64{4, 4})
	c.Machines[3].Exchange = true
	from := mustPlacement(t, c, []cluster.MachineID{0, 1})
	to := mustPlacement(t, c, []cluster.MachineID{1, 0})
	p, err := DefaultPlanner().Build(from, to)
	if err != nil {
		t.Fatal(err)
	}
	stagedToExchange := false
	for _, mv := range p.Moves {
		if mv.To == 3 {
			stagedToExchange = true
		}
		if mv.To == 2 {
			t.Errorf("staged to regular machine 2 despite exchange machine available")
		}
	}
	if !stagedToExchange {
		t.Error("expected staging via exchange machine")
	}
	assertRealizes(t, p, from, to)
}

// TestThreeCycle rotates three shards around three full machines using one
// vacant machine.
func TestThreeCycle(t *testing.T) {
	c := mkCluster([]float64{5, 5, 5, 5}, []float64{5, 5, 5})
	from := mustPlacement(t, c, []cluster.MachineID{0, 1, 2})
	to := mustPlacement(t, c, []cluster.MachineID{1, 2, 0})
	p, err := DefaultPlanner().Build(from, to)
	if err != nil {
		t.Fatal(err)
	}
	assertRealizes(t, p, from, to)
	if p.NumMoves() < 3 || p.NumMoves() > 5 {
		t.Errorf("3-cycle plan length = %d", p.NumMoves())
	}
}

func TestBuildRejectsMismatchedClusters(t *testing.T) {
	c1 := mkCluster([]float64{10}, []float64{1})
	c2 := mkCluster([]float64{10}, []float64{1})
	from := mustPlacement(t, c1, []cluster.MachineID{0})
	to := mustPlacement(t, c2, []cluster.MachineID{0})
	if _, err := DefaultPlanner().Build(from, to); err == nil {
		t.Error("expected error for different clusters")
	}
}

func TestBuildRejectsPartialPlacements(t *testing.T) {
	c := mkCluster([]float64{10, 10}, []float64{1, 1})
	from := mustPlacement(t, c, []cluster.MachineID{0, cluster.Unassigned})
	to := mustPlacement(t, c, []cluster.MachineID{0, 1})
	if _, err := DefaultPlanner().Build(from, to); err == nil {
		t.Error("expected error for partial from-placement")
	}
	if _, err := DefaultPlanner().Build(to, from); err == nil {
		t.Error("expected error for partial to-placement")
	}
}

func TestValidateCatchesBadPlans(t *testing.T) {
	c := mkCluster([]float64{4, 4}, []float64{4, 4})
	from := mustPlacement(t, c, []cluster.MachineID{0, 1})
	// illegal: move shard 0 onto the full machine 1
	bad := &Plan{Moves: []Move{{S: 0, From: 0, To: 1}}}
	if _, err := bad.Validate(from); err == nil {
		t.Error("expected transient violation")
	}
	// illegal: wrong From
	bad = &Plan{Moves: []Move{{S: 0, From: 1, To: 0}}}
	if _, err := bad.Validate(from); err == nil {
		t.Error("expected wrong-source error")
	}
	// illegal: self move
	bad = &Plan{Moves: []Move{{S: 0, From: 0, To: 0}}}
	if _, err := bad.Validate(from); err == nil {
		t.Error("expected self-move error")
	}
}

func TestBytesMoved(t *testing.T) {
	c := mkCluster([]float64{10, 10}, []float64{2, 3})
	p := &Plan{Moves: []Move{{S: 0, From: 0, To: 1}, {S: 1, From: 0, To: 1}}}
	if got := p.BytesMoved(c); got != 5 {
		t.Errorf("BytesMoved = %v, want 5", got)
	}
}

func TestAllowDisplaceFalseStillSolvesPureStaging(t *testing.T) {
	c := mkCluster([]float64{4, 4, 4}, []float64{4, 4})
	from := mustPlacement(t, c, []cluster.MachineID{0, 1})
	to := mustPlacement(t, c, []cluster.MachineID{1, 0})
	pl := Planner{AllowDisplace: false}
	p, err := pl.Build(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if p.Displaced != 0 {
		t.Error("no displacement expected")
	}
	assertRealizes(t, p, from, to)
}

// TestStagingRespectsAntiAffinity: the only roomy staging machine hosts a
// sibling replica, so the planner must not stage there.
func TestStagingRespectsAntiAffinity(t *testing.T) {
	c := mkCluster([]float64{4, 4, 10, 10}, []float64{4, 4, 1})
	// shards 0 and 1 swap between full machines 0 and 1; machine 2 hosts
	// shard 2 which shares group 7 with shard 0; machine 3 is free.
	c.Shards[0].Group = 7
	c.Shards[2].Group = 7
	from := mustPlacement(t, c, []cluster.MachineID{0, 1, 2})
	to := mustPlacement(t, c, []cluster.MachineID{1, 0, 2})
	p, err := DefaultPlanner().Build(from, to)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Validate(from)
	if err != nil {
		t.Fatal(err)
	}
	if got.Home(0) != 1 || got.Home(1) != 0 {
		t.Fatal("swap not realized")
	}
	// shard 0 must never have been staged on machine 2 (sibling present)
	for _, mv := range p.Moves {
		if mv.S == 0 && mv.To == 2 {
			t.Fatal("staged shard 0 onto its sibling's machine")
		}
	}
}

// TestQuickRandomReassignments plans random feasible from→to pairs at
// moderate fill and checks every produced plan replays exactly.
func TestQuickRandomReassignments(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nm := 4 + r.Intn(5)
		ns := 8 + r.Intn(12)
		caps := make([]float64, nm)
		for i := range caps {
			caps[i] = 20
		}
		statics := make([]float64, ns)
		for i := range statics {
			statics[i] = 1 + r.Float64()*4
		}
		c := mkCluster(caps, statics)
		// random feasible from and to via checked placement
		randomPlacement := func() *cluster.Placement {
			p := cluster.NewPlacement(c)
			for s := 0; s < ns; s++ {
				placed := false
				for _, m := range workload.Shuffled(r, nm) {
					if p.PlaceChecked(cluster.ShardID(s), cluster.MachineID(m)) {
						placed = true
						break
					}
				}
				if !placed {
					return nil
				}
			}
			return p
		}
		from := randomPlacement()
		to := randomPlacement()
		if from == nil || to == nil {
			return true // overfull draw; skip
		}
		p, err := DefaultPlanner().Build(from, to)
		if err != nil {
			// At 20%-ish fill a failure would be surprising but is not
			// wrong per se; treat as acceptable only if truly reported.
			return errors.Is(err, ErrInfeasible)
		}
		got, err := p.Validate(from)
		if err != nil {
			return false
		}
		for s := 0; s < ns; s++ {
			if got.Home(cluster.ShardID(s)) != to.Home(cluster.ShardID(s)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTightRandomWithExchange plans reassignments on highly filled machines
// where an exchange machine is required, asserting plans stay valid.
func TestTightRandomWithExchange(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		// 4 machines cap 10, 8 shards of size ~4..5: fill ≈ 90%
		caps := []float64{10, 10, 10, 10}
		statics := make([]float64, 8)
		for i := range statics {
			statics[i] = 4 + r.Float64()
		}
		c := mkCluster(caps, statics)
		assign := []cluster.MachineID{0, 0, 1, 1, 2, 2, 3, 3}
		from := mustPlacement(t, c, assign)
		// to: rotate pairs one machine over (cyclic) — a chain of swaps.
		toAssign := make([]cluster.MachineID, len(assign))
		for i, m := range assign {
			toAssign[i] = (m + 1) % 4
		}
		to := mustPlacement(t, c, toAssign)

		if _, err := DefaultPlanner().Build(from, to); !errors.Is(err, ErrInfeasible) && err != nil {
			t.Fatalf("seed %d without exchange: unexpected error %v", seed, err)
		}

		// With one borrowed exchange machine the rotation must succeed.
		ec := c.WithExchange(1, vec.Uniform(10), 1)
		efrom := mustPlacement(t, ec, assign)
		eto := mustPlacement(t, ec, toAssign)
		p, err := DefaultPlanner().Build(efrom, eto)
		if err != nil {
			t.Fatalf("seed %d with exchange: %v", seed, err)
		}
		assertRealizes(t, p, efrom, eto)
	}
}

// naiveBuild is Build as it was before it kept its pending shards in one
// sorted slice and dense per-shard arrays: every sweep and every staging
// step re-reads the pending map and sorts it again. TestPlannerMatchesNaive
// holds Build to it.
func naiveBuild(pl Planner, from, to *cluster.Placement) (*Plan, error) {
	if from.Cluster() != to.Cluster() {
		return nil, fmt.Errorf("plan: placements refer to different clusters")
	}
	c := from.Cluster()
	if from.UnassignedCount() > 0 || to.UnassignedCount() > 0 {
		return nil, fmt.Errorf("plan: placements must be complete (unassigned: from=%d to=%d)",
			from.UnassignedCount(), to.UnassignedCount())
	}

	target := to.Assignment()
	w := from.Clone()

	// pending: shards not yet on their final machine.
	pendingSet := make(map[cluster.ShardID]bool)
	for s := range target {
		if w.Home(cluster.ShardID(s)) != target[s] {
			pendingSet[cluster.ShardID(s)] = true
		}
	}
	// The step budget bounds total scheduled moves, staging hops included.
	maxSteps := 8*len(pendingSet) + 64

	plan := &Plan{}
	hops := make(map[cluster.ShardID]int)

	for len(pendingSet) > 0 {
		if len(plan.Moves) >= maxSteps {
			return nil, fmt.Errorf("%w: step budget %d exhausted with %d shards pending",
				ErrInfeasible, maxSteps, len(pendingSet))
		}
		pending := naiveSortedPending(c, pendingSet)

		// Phase 1: apply every direct move currently admissible. Largest
		// shards first: they are the hardest to fit, so give them first
		// pick of the free space.
		progress := false
		for _, s := range pending {
			if !pendingSet[s] { // may have been resolved this sweep
				continue
			}
			t := target[s]
			if w.Home(s) == t {
				delete(pendingSet, s)
				continue
			}
			if w.CanPlace(s, t) {
				plan.Moves = append(plan.Moves, Move{S: s, From: w.Home(s), To: t})
				w.Move(s, t)
				if cluster.DebugAsserts {
					w.MustInvariants("plan direct move")
				}
				delete(pendingSet, s)
				progress = true
			}
		}
		if progress {
			continue
		}

		// Phase 2: deadlock. Stage one blocking shard to an intermediate
		// machine to open space.
		if naiveStageOne(pl, c, w, target, pendingSet, hops, plan) {
			continue
		}
		return nil, fmt.Errorf("%w: %d shards pending and no staging possible",
			ErrInfeasible, len(pendingSet))
	}
	return plan, nil
}

// naiveSortedPending returns the pending shards ordered by decreasing static
// footprint (ties by ID) for deterministic schedules.
func naiveSortedPending(c *cluster.Cluster, set map[cluster.ShardID]bool) []cluster.ShardID {
	out := make([]cluster.ShardID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := c.Shards[out[i]].Static.MaxDim(), c.Shards[out[j]].Static.MaxDim()
		if a != b {
			return a > b
		}
		return out[i] < out[j]
	})
	return out
}

// naiveStageOne relocates one shard off a blocked target machine to an
// intermediate machine, reporting whether it scheduled a move. Preference
// order: (1) a pending shard sitting on some pending shard's target —
// moving it is work we owe anyway; (2) with AllowDisplace, any shard on a
// blocked target, which then becomes pending to return.
func naiveStageOne(
	pl Planner,
	c *cluster.Cluster,
	w *cluster.Placement,
	target []cluster.MachineID,
	pendingSet map[cluster.ShardID]bool,
	hops map[cluster.ShardID]int,
	plan *Plan,
) bool {
	pending := naiveSortedPending(c, pendingSet)

	// Collect the set of blocked target machines, biggest blocked shard
	// first so we open space where it matters most.
	var blocked []cluster.MachineID
	seen := make(map[cluster.MachineID]bool)
	for _, s := range pending {
		t := target[s]
		if !seen[t] {
			seen[t] = true
			blocked = append(blocked, t)
		}
	}

	tryStage := func(victim cluster.ShardID, isPending bool) bool {
		if hops[victim] >= maxHops {
			return false
		}
		m := pl.bestStaging(c, w, victim, target[victim])
		if m == cluster.Unassigned {
			return false
		}
		plan.Moves = append(plan.Moves, Move{S: victim, From: w.Home(victim), To: m})
		plan.Staged++
		if !isPending {
			plan.Displaced++
			pendingSet[victim] = true // must return to its (unchanged) target
		}
		w.Move(victim, m)
		if cluster.DebugAsserts {
			w.MustInvariants("plan staging move")
		}
		hops[victim]++
		return true
	}

	// Preference 1: pending shards that sit on blocked machines.
	for _, t := range blocked {
		var victims []cluster.ShardID
		w.EachShardOn(t, func(u cluster.ShardID) {
			if pendingSet[u] {
				victims = append(victims, u)
			}
		})
		sortCandidates(c, victims)
		for _, v := range victims {
			if tryStage(v, true) {
				return true
			}
		}
	}
	if !pl.AllowDisplace {
		return false
	}
	// Preference 2: displace settled shards off blocked machines.
	for _, t := range blocked {
		var victims []cluster.ShardID
		w.EachShardOn(t, func(u cluster.ShardID) {
			if !pendingSet[u] {
				victims = append(victims, u)
			}
		})
		sortCandidates(c, victims)
		for _, v := range victims {
			if tryStage(v, false) {
				return true
			}
		}
	}
	return false
}

// TestPlannerMatchesNaive holds Build to naiveBuild: the same moves, Staged
// and Displaced counts, or the same error, on reassignments that take the
// direct, staging and displacement paths, and on one that is infeasible.
func TestPlannerMatchesNaive(t *testing.T) {
	var direct, staged, displaced, infeasible int
	check := func(name string, from, to *cluster.Placement) {
		t.Helper()
		for _, pl := range []Planner{DefaultPlanner(), {AllowDisplace: false}} {
			got, gotErr := pl.Build(from, to)
			want, wantErr := naiveBuild(pl, from, to)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s (displace %v): error %v, naive form %v", name, pl.AllowDisplace, gotErr, wantErr)
			}
			if gotErr != nil {
				if errors.Is(gotErr, ErrInfeasible) {
					infeasible++
				}
				continue
			}
			if !slices.Equal(got.Moves, want.Moves) || got.Staged != want.Staged || got.Displaced != want.Displaced {
				t.Fatalf("%s (displace %v): %d moves, %d staged, %d displaced; naive form %d, %d, %d",
					name, pl.AllowDisplace, got.NumMoves(), got.Staged, got.Displaced, want.NumMoves(), want.Staged, want.Displaced)
			}
			direct += got.NumMoves() - got.Staged
			staged += got.Staged
			displaced += got.Displaced
		}
	}
	for seed := int64(0); seed < 12; seed++ {
		// A generated fleet with exchange machines: a rotation of every
		// shard one machine over, and a random reassignment of a fifth of
		// the shards onto machines with room.
		cfg := workload.DefaultConfig()
		cfg.Machines, cfg.Shards, cfg.TargetFill, cfg.Seed = 30, 360, 0.9+0.007*float64(seed), seed
		inst, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ec := inst.Cluster.WithExchange(1+int(seed%3), vec.Uniform(100), 1)
		from := mustPlacement(t, ec, inst.Placement.Assignment())
		rotated := from.Assignment()
		for s, m := range rotated {
			rotated[s] = (m + 1) % cluster.MachineID(cfg.Machines)
		}
		check("rotation", from, mustPlacement(t, ec, rotated))
		r := rand.New(rand.NewSource(seed))
		moved := from.Clone()
		for s := range rotated {
			if r.Intn(5) == 0 {
				moved.MoveChecked(cluster.ShardID(s), cluster.MachineID(r.Intn(ec.NumMachines())))
			}
		}
		check("random", from, moved)
	}
	// Small full fleets, one small exchange machine, random pairs: the
	// pending shards on a blocked target often fit nowhere, so settled
	// shards are displaced.
	for seed := int64(0); seed < 1000; seed++ {
		r := rand.New(rand.NewSource(seed))
		nm := 3 + r.Intn(8)
		caps := make([]float64, nm)
		statics := make([]float64, 3*nm)
		for i := range caps {
			caps[i] = 10
		}
		for i := range statics {
			statics[i] = float64(1 + r.Intn(5))
		}
		ec := mkCluster(caps, statics).WithExchange(1, vec.Uniform(float64(2+r.Intn(5))), 1)
		randomPlacement := func() *cluster.Placement {
			p := cluster.NewPlacement(ec)
			for s := range statics {
				for _, m := range workload.Shuffled(r, nm) {
					if p.PlaceChecked(cluster.ShardID(s), cluster.MachineID(m)) {
						break
					}
				}
			}
			return p
		}
		if from, to := randomPlacement(), randomPlacement(); from.UnassignedCount() == 0 && to.UnassignedCount() == 0 {
			check(fmt.Sprintf("small seed %d", seed), from, to)
		}
	}
	// Two full machines swapping their shards with no room anywhere.
	c := mkCluster([]float64{10, 10}, []float64{6, 6})
	check("swap without room", mustPlacement(t, c, []cluster.MachineID{0, 1}), mustPlacement(t, c, []cluster.MachineID{1, 0}))
	if direct == 0 || staged == 0 || displaced == 0 || infeasible == 0 {
		t.Errorf("a path went untaken: %d direct moves, %d staged, %d displaced, %d infeasible plans",
			direct, staged, displaced, infeasible)
	}
}
