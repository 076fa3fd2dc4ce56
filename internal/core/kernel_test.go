package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/rng"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

// refKernel is the reference the delta kernel is held to: clone the
// placement before every neighborhood, rescan the full objective after it,
// and restore the clone on rejection. It lives here, behind state.kern, so
// that production code carries one kernel.
type refKernel struct {
	st   *state
	snap *cluster.Placement
}

func (k *refKernel) begin() { k.snap = k.st.cur.Clone() }
func (k *refKernel) evaluate() float64 {
	return objective(k.st.cur, k.st.cfg.SpreadWeight, k.st.cfg.MovePenalty, k.st.initial)
}
func (k *refKernel) keep()   {}
func (k *refKernel) reject() { k.st.cur = k.snap }

// solveRef is Solver.Solve over the reference kernel.
func solveRef(cfg Config, p *cluster.Placement) (*Result, error) {
	k, err := cfg.validate(p)
	if err != nil {
		return nil, err
	}
	st := newState(cfg, p, k)
	st.kern = &refKernel{st: st}
	st.run()
	return st.finish()
}

// replicatedInstance is smallInstance's fleet with every logical shard
// replicated twice (the same 120 physical shards on 12 machines), so
// anti-affinity groups constrain every repair.
func replicatedInstance(t *testing.T, seed int64, k int) *cluster.Placement {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Machines = 12
	cfg.Shards = 60
	cfg.Replicas = 2
	cfg.TargetFill = 0.75
	cfg.Seed = seed
	inst, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ec := inst.Cluster.WithExchange(k, vec.New(100, 100, 100), 1)
	p, err := cluster.FromAssignment(ec, inst.Placement.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bigFleetInstance builds an instance large enough to exercise the
// heap-based candidate selection (which only engages above 32 machines).
func bigFleetInstance(t *testing.T, machines int) *cluster.Placement {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Machines = machines
	cfg.Shards = machines * 10
	cfg.TargetFill = 0.7
	cfg.Seed = 7
	inst, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Placement
}

// resultsBitIdentical fails unless a (delta kernel) and b (reference
// kernel) are indistinguishable: same final assignment, Float64bits-equal
// objective and trajectory, same search accounting. This is the golden
// equivalence contract the delta kernel must uphold.
func resultsBitIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		t.Fatalf("%s: objective %v vs %v — not bit-identical", label, a.Objective, b.Objective)
	}
	aa, ba := a.Final.Assignment(), b.Final.Assignment()
	for s := range aa {
		if aa[s] != ba[s] {
			t.Fatalf("%s: shard %d assigned to %d vs %d", label, s, aa[s], ba[s])
		}
	}
	if a.Accepted != b.Accepted || a.RepairFailures != b.RepairFailures {
		t.Fatalf("%s: accounting diverged: accepted %d/%d, repair failures %d/%d",
			label, a.Accepted, b.Accepted, a.RepairFailures, b.RepairFailures)
	}
	if a.MovedShards != b.MovedShards {
		t.Fatalf("%s: moved %d vs %d", label, a.MovedShards, b.MovedShards)
	}
	if len(a.Trajectory) != len(b.Trajectory) {
		t.Fatalf("%s: trajectory length %d vs %d", label, len(a.Trajectory), len(b.Trajectory))
	}
	for i := range a.Trajectory {
		if math.Float64bits(a.Trajectory[i]) != math.Float64bits(b.Trajectory[i]) {
			t.Fatalf("%s: trajectory[%d] %v vs %v", label, i, a.Trajectory[i], b.Trajectory[i])
		}
	}
}

// TestKernelEquivalence is the golden test for the delta kernel: for fixed
// seeds, the journal-based in-place kernel and the retained clone-and-rescan
// reference kernel must produce byte-identical results — every destroy ×
// repair operator pair, plus the full adaptive portfolio on an unreplicated
// and on a replicated fleet (where rollback must also restore what
// anti-affinity sees).
func TestKernelEquivalence(t *testing.T) {
	type opCase struct {
		name     string
		ops      OperatorSet
		instance func(*testing.T, int64, int) *cluster.Placement
	}
	var cases []opCase
	destroys := []struct {
		name string
		set  func(*OperatorSet)
	}{
		{"random", func(o *OperatorSet) { o.RandomRemove = true }},
		{"worst", func(o *OperatorSet) { o.WorstRemove = true }},
		{"related", func(o *OperatorSet) { o.RelatedRemove = true }},
		{"drain", func(o *OperatorSet) { o.DrainRemove = true }},
	}
	repairs := []struct {
		name string
		set  func(*OperatorSet)
	}{
		{"greedy", func(o *OperatorSet) { o.GreedyRepair = true }},
		{"regret", func(o *OperatorSet) { o.RegretRepair = true }},
	}
	for _, d := range destroys {
		for _, r := range repairs {
			var ops OperatorSet
			d.set(&ops)
			r.set(&ops)
			cases = append(cases, opCase{d.name + "+" + r.name, ops, smallInstance})
		}
	}
	cases = append(cases, opCase{"full-portfolio", DefaultConfig().Operators, smallInstance})
	cases = append(cases, opCase{"replicated", DefaultConfig().Operators, replicatedInstance})

	for _, tc := range cases {
		for _, seed := range []int64{1, 17} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				p := tc.instance(t, seed, 2)
				cfg := quickConfig()
				cfg.Seed = seed
				cfg.Operators = tc.ops
				cfg.KeepTrajectory = true

				delta, err := New(cfg).Solve(p)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := solveRef(cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				resultsBitIdentical(t, tc.name, delta, ref)
			})
		}
	}
}

// TestKernelEquivalenceParallel extends the golden contract to the restart
// portfolio: SolvePartitioned over one partition must pick bit-identical
// winners under both kernels.
func TestKernelEquivalenceParallel(t *testing.T) {
	p := smallInstance(t, 5, 2)
	cfg := quickConfig()
	cfg.KeepTrajectory = true

	delta, err := New(cfg).SolvePartitioned(p, PartitionConfig{Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The reference portfolio is solveRestarts written out: the same
	// worker seeds, reduced by the same rule.
	outcomes := make([]outcome, 4)
	for i := range outcomes {
		refCfg := cfg
		refCfg.Seed = rng.WorkerSeed(cfg.Seed, i)
		res, err := solveRef(refCfg, p)
		outcomes[i] = outcome{res, err}
	}
	ref, err := reduceOutcomes(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "parallel", delta, ref)
	if delta.FailedRestarts != 0 || ref.FailedRestarts != 0 {
		t.Fatalf("unexpected failed restarts: %d/%d", delta.FailedRestarts, ref.FailedRestarts)
	}
}

// TestIncrementalObjectiveMatchesReference fuzzes the incremental objective
// against the full-rescan reference over random journaled mutation batches —
// including rejected (rolled back) batches, whose state must keep matching
// afterwards.
func TestIncrementalObjectiveMatchesReference(t *testing.T) {
	p := smallInstance(t, 23, 2)
	cfg := quickConfig()
	cfg.Seed = 23
	st := newState(cfg, p, 2)
	st.curObj = objective(st.cur, cfg.SpreadWeight, cfg.MovePenalty, st.initial)
	st.initIncremental()

	c := st.cur.Cluster()
	n := c.NumShards()
	for round := 0; round < 400; round++ {
		st.cur.BeginTxn()
		st.saveObjState()
		// Random batch: remove a handful of shards, re-place them anywhere
		// they statically fit (the incremental state must track any legal
		// mutation sequence, not just solver-shaped ones).
		batch := 1 + st.rng.Intn(6)
		for b := 0; b < batch; b++ {
			s := cluster.ShardID(st.rng.Intn(n))
			if st.cur.Home(s) == cluster.Unassigned {
				continue
			}
			if err := st.cur.Remove(s); err != nil {
				t.Fatal(err)
			}
			for try := 0; try < 8; try++ {
				m := cluster.MachineID(st.rng.Intn(c.NumMachines()))
				if st.cur.PlaceChecked(s, m) {
					break
				}
			}
		}
		st.syncTouched()
		got := st.evalIncremental()
		want := objective(st.cur, cfg.SpreadWeight, cfg.MovePenalty, st.initial)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d: incremental %v vs reference %v", round, got, want)
		}
		// Alternate accept/reject so both paths stay exercised.
		if round%2 == 0 {
			st.cur.Commit()
		} else {
			st.rollbackIncremental()
			got := st.evalIncremental()
			want := objective(st.cur, cfg.SpreadWeight, cfg.MovePenalty, st.initial)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d: post-rollback incremental %v vs reference %v", round, got, want)
			}
		}
	}
}

// TestCandidateMachinesDistinct pins the dedupe fix: the candidate subset
// must never contain a machine twice (duplicate random extras used to
// silently shrink candidate diversity).
func TestCandidateMachinesDistinct(t *testing.T) {
	p := bigFleetInstance(t, 64)
	cfg := quickConfig()
	st := newState(cfg, p, 0)
	low := st.lowestMachines(lowCount)
	for round := 0; round < 50; round++ {
		cands := st.candidateMachines(low)
		if len(cands) != 32 {
			t.Fatalf("round %d: %d candidates, want 32", round, len(cands))
		}
		seen := map[cluster.MachineID]bool{}
		for _, m := range cands {
			if seen[m] {
				t.Fatalf("round %d: duplicate candidate machine %d", round, m)
			}
			seen[m] = true
		}
	}
}

// TestBestTwoMachinesFor checks the full-scan fallback against a brute
// force: c1/c2 must be the true lowest and second-lowest feasible insertion
// costs (the bug this replaces left c2 at +Inf, inflating every fallback
// regret to ~1e18). It also holds both cost-before-feasibility scans to
// their feasibility-first forms bit for bit, on fleets where anti-affinity,
// the vacancy contract, tight capacity and exact cost ties each decide.
func TestBestTwoMachinesFor(t *testing.T) {
	tested := 0
	for name, p := range map[string]*cluster.Placement{
		"small":      smallInstance(t, 31, 2),
		"replicated": operatorFleet(t, 48, 240, 2, 0.75, 3),
		"tight":      operatorFleet(t, 40, 600, 1, 0.98, 1),
		"tied":       tiedFleet(t),
	} {
		st := newState(quickConfig(), p, 1)
		c := st.cur.Cluster()
		for s := 0; s < c.NumShards(); s += 7 {
			sid := cluster.ShardID(s)
			if err := st.cur.Remove(sid); err != nil {
				t.Fatal(err)
			}
			m, c1, c2 := st.bestTwoMachinesFor(sid)
			wm, wc1, wc2 := naiveBestTwo(st, sid)
			if m != wm || math.Float64bits(c1) != math.Float64bits(wc1) || math.Float64bits(c2) != math.Float64bits(wc2) {
				t.Fatalf("%s shard %d: bestTwoMachinesFor = (%d, %v, %v), feasibility-first (%d, %v, %v)",
					name, s, m, c1, c2, wm, wc1, wc2)
			}
			if m, wm := st.bestMachineFor(sid), naiveBest(st, sid); m != wm {
				t.Fatalf("%s shard %d: bestMachineFor = %d, feasibility-first %d", name, s, m, wm)
			}

			var costs []float64
			for m := 0; m < c.NumMachines(); m++ {
				id := cluster.MachineID(m)
				if st.canInsert(sid, id) {
					costs = append(costs, st.insertCost(sid, id))
				}
			}
			lo, lo2 := math.Inf(1), math.Inf(1)
			for _, v := range costs {
				if v < lo {
					lo2 = lo
					lo = v
				} else if v < lo2 {
					lo2 = v
				}
			}
			// The scan breaks sub-epsilon cost ties by slack, so allow the
			// documented 1e-12 tie tolerance (the bug being pinned is 18 orders
			// of magnitude larger).
			if math.Abs(c1-lo) > 1e-9 && !(math.IsInf(c1, 1) && math.IsInf(lo, 1)) {
				t.Fatalf("%s shard %d: c1 = %v, brute force %v", name, s, c1, lo)
			}
			if math.Abs(c2-lo2) > 1e-9 && !(math.IsInf(c2, 1) && math.IsInf(lo2, 1)) {
				t.Fatalf("%s shard %d: c2 = %v, brute force second-best %v", name, s, c2, lo2)
			}
			if len(costs) >= 2 && math.IsInf(c2, 1) {
				t.Fatalf("%s shard %d: c2 is +Inf with %d feasible machines", name, s, len(costs))
			}
			// Leave the shard where the scan put it, so later scans see a
			// placement that has drifted from the generated one.
			if m == cluster.Unassigned {
				m = st.initial[sid]
			}
			if err := st.cur.Place(sid, m); err != nil {
				t.Fatal(err)
			}
			tested++
		}
	}
	if tested == 0 {
		t.Fatal("no shards tested")
	}
}

// TestReduceOutcomes covers the restart-failure accounting satellite.
func TestReduceOutcomes(t *testing.T) {
	res := func(obj float64) *Result { return &Result{Objective: obj} }

	best, err := reduceOutcomes([]outcome{
		{res(0.7), nil},
		{nil, errors.New("boom")},
		{res(0.5), nil},
		{nil, errors.New("bust")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Objective != 0.5 {
		t.Errorf("picked objective %v, want 0.5", best.Objective)
	}
	if best.FailedRestarts != 2 {
		t.Errorf("FailedRestarts = %d, want 2", best.FailedRestarts)
	}

	_, err = reduceOutcomes([]outcome{
		{nil, errors.New("first")},
		{nil, errors.New("second")},
	})
	if err == nil {
		t.Fatal("all-failed portfolio must error")
	}
}
