package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

// operatorFleet is a generated fleet above the 32-machine threshold of
// regret repair's candidate selection, with k vacant exchange machines
// appended so that the vacancy contract constrains every insertion scan.
// replicas > 1 adds anti-affinity groups; a fill near 1 makes repairs fail.
func operatorFleet(t testing.TB, machines, shards, replicas int, fill float64, k int) *cluster.Placement {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Machines = machines
	cfg.Shards = shards
	cfg.Replicas = replicas
	cfg.TargetFill = fill
	cfg.Seed = 9
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

// TestOperatorTrajectoryPinned pins the search trajectory of the destroy and
// repair operators themselves, to the bits recorded before they were made
// cheaper: TestKernelEquivalence* compare two kernels that share the
// operators and so cannot see an operator change, and the other pinned
// fixtures have at most 32 machines, where regret repair scans the whole
// fleet. The fleets here are above that threshold and large enough that
// destroy sizes run well above minDestroy; the tight one makes repairs fail,
// so regret's full-scan fallback runs too.
func TestOperatorTrajectoryPinned(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		instance                 func() *cluster.Placement
		adaptive                 bool
		objective, assign        uint64
		accepted, repairFailures int
	}{
		{"big64/adaptive", func() *cluster.Placement { return bigFleetInstance(t, 64) }, true, 0x3fe5e3f7f8f40a37, 0x35e5470c24828486, 228, 0},
		{"big64/uniform", func() *cluster.Placement { return bigFleetInstance(t, 64) }, false, 0x3fe62a5abe231e73, 0xdccb715835c0a70e, 216, 0},
		{"replicated48/adaptive", func() *cluster.Placement { return operatorFleet(t, 48, 240, 2, 0.75, 3) }, true, 0x3fe6028050a8aeae, 0x5db3c5f5e8d71d61, 241, 0},
		{"replicated48/uniform", func() *cluster.Placement { return operatorFleet(t, 48, 240, 2, 0.75, 3) }, false, 0x3fe60dca4a5b155e, 0x2f7663d0a870f2d0, 203, 0},
		{"tight40/adaptive", func() *cluster.Placement { return operatorFleet(t, 40, 600, 1, 0.98, 1) }, true, 0x3fe997660752ba06, 0xdc862a5df4077eae, 213, 14},
		{"tight40/uniform", func() *cluster.Placement { return operatorFleet(t, 40, 600, 1, 0.98, 1) }, false, 0x3fe942f606e34a98, 0xfa04b96066cfa279, 175, 36},
	} {
		cfg := quickConfig()
		cfg.Adaptive = tc.adaptive
		res, err := New(cfg).Solve(tc.instance())
		if err != nil {
			t.Fatal(err)
		}
		if obj, assign := math.Float64bits(res.Objective), assignmentHash(res.Final); obj != tc.objective || assign != tc.assign ||
			res.Accepted != tc.accepted || res.RepairFailures != tc.repairFailures {
			t.Errorf("%s: objective bits %#x, assignment hash %#x, accepted %d, repair failures %d; want %#x, %#x, %d, %d",
				tc.name, obj, assign, res.Accepted, res.RepairFailures,
				tc.objective, tc.assign, tc.accepted, tc.repairFailures)
		}
	}
}

// The naive forms below are the operators as they were before they were made
// cheaper — score or rank everything, sort it all, check feasibility before
// cost. Like refKernel they live here so that production code carries one
// form; the differential tests hold the cheap forms to them draw for draw.

// canInsert is the insertion scans' feasibility read per call: static
// capacity and anti-affinity must hold, and occupying a currently vacant
// machine is allowed only while more than K machines are vacant.
func (st *state) canInsert(s cluster.ShardID, m cluster.MachineID) bool {
	if st.cur.IsVacant(m) && st.cur.NumVacant() <= st.k {
		return false
	}
	return st.cur.CanPlace(s, m)
}

// insertCost is the insertion scans' cost read per call: the utilization
// machine m would reach after hosting s.
func (st *state) insertCost(s cluster.ShardID, m cluster.MachineID) float64 {
	c := st.cur.Cluster()
	return (st.cur.Load(m) + c.Shards[s].Load) / c.Machines[m].Speed
}

// byKeyThenID is the total order every selection uses.
func byKeyThenID(a, b ranked) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

func naiveRandom(st *state, q int) {
	n := st.cur.Cluster().NumShards()
	ids := make([]cluster.ShardID, n)
	for i := range ids {
		ids[i] = cluster.ShardID(i)
	}
	for i := 0; i < q && i < n; i++ {
		j := i + st.rng.Intn(n-i)
		ids[i], ids[j] = ids[j], ids[i]
		st.removeToPool(ids[i])
	}
}

func naiveWorst(st *state, q int) {
	c := st.cur.Cluster()
	for i := 0; i < q; i++ {
		worst, worstU := cluster.Unassigned, -1.0
		for m := 0; m < c.NumMachines(); m++ {
			id := cluster.MachineID(m)
			if u := st.cur.Utilization(id); !st.cur.IsVacant(id) && u > worstU {
				worst, worstU = id, u
			}
		}
		if worst == cluster.Unassigned {
			return
		}
		hot, hotLoad := cluster.ShardID(-1), -1.0
		for _, s := range st.cur.ShardsOn(worst) {
			if c.Shards[s].Load > hotLoad {
				hot, hotLoad = s, c.Shards[s].Load
			}
		}
		st.removeToPool(hot)
	}
}

func naiveRelated(st *state, q int) {
	c := st.cur.Cluster()
	n := c.NumShards()
	if n == 0 || q <= 0 {
		return
	}
	seed := cluster.ShardID(st.rng.Intn(n))
	seedSh := &c.Shards[seed]
	seedHome := st.cur.Home(seed)
	loadScale, staticScale := maxShardLoad(c), maxShardStatic(c)
	var all []ranked
	for i := 0; i < n; i++ {
		s := cluster.ShardID(i)
		if s == seed {
			continue
		}
		sh := &c.Shards[i]
		d := 0.0
		if loadScale > 0 {
			d += math.Abs(sh.Load-seedSh.Load) / loadScale
		}
		if staticScale > 0 {
			d += sh.Static.Dist2(seedSh.Static) / staticScale
		}
		if st.cur.Home(s) != seedHome {
			d += 0.3
		}
		all = append(all, ranked{d, i})
	}
	slices.SortFunc(all, byKeyThenID)
	st.removeToPool(seed)
	for i := 0; i < q-1 && i < len(all); i++ {
		st.removeToPool(cluster.ShardID(all[i].id))
	}
}

func naiveDrain(st *state, q int) {
	c := st.cur.Cluster()
	var cands []ranked
	for m := 0; m < c.NumMachines(); m++ {
		id := cluster.MachineID(m)
		if cnt := st.cur.Count(id); cnt != 0 && cnt <= q+4 {
			cands = append(cands, ranked{st.cur.Utilization(id), m})
		}
	}
	if len(cands) == 0 {
		naiveRandom(st, q)
		return
	}
	slices.SortFunc(cands, byKeyThenID)
	pick := cluster.MachineID(cands[st.rng.Intn(min(4, len(cands)))].id)
	for _, s := range slices.Clone(st.cur.ShardsOn(pick)) {
		st.removeToPool(s)
	}
}

// naiveCandidates is regret repair's candidate subset selected over the
// whole fleet, as every step of a repair used to.
func naiveCandidates(st *state) []cluster.MachineID {
	n := st.cur.Cluster().NumMachines()
	var out []cluster.MachineID
	if n <= lowCount+randCount {
		for m := 0; m < n; m++ {
			out = append(out, cluster.MachineID(m))
		}
		return out
	}
	var all []ranked
	for m := 0; m < n; m++ {
		all = append(all, ranked{st.cur.Utilization(cluster.MachineID(m)), m})
	}
	slices.SortFunc(all, byKeyThenID)
	for _, e := range all[:lowCount] {
		out = append(out, cluster.MachineID(e.id))
	}
	for len(out) < lowCount+randCount {
		if m := cluster.MachineID(st.rng.Intn(n)); !slices.Contains(out, m) {
			out = append(out, m)
		}
	}
	return out
}

// naiveBestTwo is bestTwoMachinesFor with the feasibility check first.
func naiveBestTwo(st *state, s cluster.ShardID) (best cluster.MachineID, c1, c2 float64) {
	best = cluster.Unassigned
	c1, c2 = math.Inf(1), math.Inf(1)
	bestSlack := -1.0
	for m := 0; m < st.cur.Cluster().NumMachines(); m++ {
		id := cluster.MachineID(m)
		if !st.canInsert(s, id) {
			continue
		}
		cost := st.insertCost(s, id)
		switch {
		case cost < c1-1e-12:
			c2 = c1
			best, c1 = id, cost
			bestSlack = st.cur.Free(id).MaxDim()
		case cost <= c1+1e-12:
			if cost < c2 {
				c2 = cost
			}
			if slack := st.cur.Free(id).MaxDim(); slack > bestSlack {
				best, bestSlack = id, slack
			}
		case cost < c2:
			c2 = cost
		}
	}
	return best, c1, c2
}

// naiveBest is bestMachineFor with the feasibility check first.
func naiveBest(st *state, s cluster.ShardID) cluster.MachineID {
	best := cluster.Unassigned
	bestCost := math.Inf(1)
	bestSlack := -1.0
	for m := 0; m < st.cur.Cluster().NumMachines(); m++ {
		id := cluster.MachineID(m)
		if !st.canInsert(s, id) {
			continue
		}
		cost := st.insertCost(s, id)
		if cost < bestCost-1e-12 {
			best, bestCost = id, cost
			bestSlack = st.cur.Free(id).MaxDim()
		} else if cost <= bestCost+1e-12 {
			if slack := st.cur.Free(id).MaxDim(); slack > bestSlack {
				best, bestSlack = id, slack
			}
		}
	}
	return best
}

// tiedFleet is a fleet whose shards come in six identical (load, static)
// classes, so Shaw distances repeat and selection is decided by shard ID.
func tiedFleet(t testing.TB) *cluster.Placement {
	t.Helper()
	c := &cluster.Cluster{}
	for m := 0; m < 40; m++ {
		c.Machines = append(c.Machines, cluster.Machine{ID: cluster.MachineID(m), Capacity: vec.Uniform(1000), Speed: 1})
	}
	assign := make([]cluster.MachineID, 400)
	for s := range assign {
		c.Shards = append(c.Shards, cluster.Shard{
			ID:     cluster.ShardID(s),
			Static: vec.Uniform(float64(1 + s%2)),
			Load:   float64(1 + s%3),
		})
		assign[s] = cluster.MachineID(s * 7 % 40)
	}
	p, err := cluster.FromAssignment(c, assign)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDestroyersMatchNaive holds the destroy operators — random over its
// persistent permutation, worst, related and drain over the bounded heap —
// to their naive forms: same pool, same order, same RNG draws, over 200 seeds
// and destroy sizes from 1 to past the shard count, on a generated fleet and
// on one where distances tie.
func TestDestroyersMatchNaive(t *testing.T) {
	fleets := map[string]*cluster.Placement{"generated": bigFleetInstance(t, 64), "tied": tiedFleet(t)}
	ops := []struct {
		name        string
		fast, naive func(*state, int)
	}{
		{"random", (*state).destroyRandom, naiveRandom},
		{"worst", (*state).destroyWorst, naiveWorst},
		{"related", (*state).destroyRelated, naiveRelated},
		{"drain", (*state).destroyDrain, naiveDrain},
	}
	for name, p := range fleets {
		n := p.Cluster().NumShards()
		for seed := int64(0); seed < 200; seed++ {
			cfg := quickConfig()
			cfg.Seed = seed
			fast, naive := newState(cfg, p, 0), newState(cfg, p, 0)
			// Several destroys per state, each on the placement the last
			// one left: the scratch buffers carry over as in a solve.
			for round, q := range []int{1, 2, 38, 80, 5, n + 3, 17} {
				op := ops[(int(seed)+round)%len(ops)]
				fast.pool, naive.pool = fast.pool[:0], naive.pool[:0]
				op.fast(fast, q)
				op.naive(naive, q)
				if !slices.Equal(fast.pool, naive.pool) {
					t.Fatalf("%s seed %d round %d: %s(%d) removed %v, naive form %v",
						name, seed, round, op.name, q, fast.pool, naive.pool)
				}
				for i, s := range fast.shardPerm {
					if int(s) != i {
						t.Fatalf("%s seed %d round %d: shardPerm[%d] = %d after %s, want the identity",
							name, seed, round, i, s, op.name)
					}
				}
				for _, s := range fast.pool {
					for _, st := range []*state{fast, naive} {
						if err := st.cur.Place(s, st.initial[s]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if a, b := fast.rng.Int63(), naive.rng.Int63(); a != b {
				t.Fatalf("%s seed %d: RNG streams diverged", name, seed)
			}
		}
	}
}

// TestRegretCandidatesMatchWholeFleetSelection holds the contract of
// lowestMachines/rerank: after every placement of a repair — wherever it
// lands, the lowest machine, a random extra, a vacant machine or the whole
// fleet's cheapest — the candidate subset read off the once-selected list is
// the one a fresh selection over the whole fleet gives, in the same order,
// from the same RNG draws.
func TestRegretCandidatesMatchWholeFleetSelection(t *testing.T) {
	for _, machines := range []int{33, 64, 1000} {
		p := benchFleet(t, machines, machines*8, 3) // every fifth machine of a shape class is vacant
		for _, pool := range []int{4, 24, 80} {
			cfg := quickConfig()
			cfg.Seed = int64(machines + pool)
			fast, naive := newState(cfg, p, 2), newState(cfg, p, 2)
			fast.destroyRandom(pool)
			naive.destroyRandom(pool)
			low := fast.lowestMachines(lowCount + len(fast.pool))
			for step, s := range fast.pool {
				got, want := fast.candidateMachines(low), naiveCandidates(naive)
				if !slices.Equal(got, want) {
					t.Fatalf("%d machines, pool %d, step %d: candidates %v, whole-fleet selection %v",
						machines, pool, step, got, want)
				}
				m := got[[]int{0, 3, lowCount, len(got) - 1, 0}[step%5]]
				if step%5 == 4 || !fast.canInsert(s, m) {
					m = fast.bestMachineFor(s)
				}
				if m == cluster.Unassigned {
					continue
				}
				for _, st := range []*state{fast, naive} {
					if err := st.cur.Place(s, m); err != nil {
						t.Fatal(err)
					}
				}
				fast.rerank(low, m)
			}
		}
	}
}

// regretCoverage counts what naiveRegret ran into, so that a test can
// require each path it means to exercise to have been taken.
type regretCoverage struct {
	grouped   int // grouped shards placed: their feasibility went through CanPlace
	fallbacks int // full-fleet scans after the candidate subset found nothing
	flips     int // placements onto a vacant machine that used the last spare vacancy
}

// naiveRegret is regret repair as it was before its scans read dense
// per-machine data: candidates selected over the whole fleet, every
// candidate's feasibility and cost read per pool shard through canInsert and
// insertCost, and the feasibility-first full scan as the fallback.
func naiveRegret(st *state, cov *regretCoverage) bool {
	remaining := slices.Clone(st.pool)
	for len(remaining) > 0 {
		cands := naiveCandidates(st)
		bestIdx := -1
		var bestM cluster.MachineID
		bestRegret := -1.0
		for i, s := range remaining {
			m1 := cluster.Unassigned
			c1, c2 := math.Inf(1), math.Inf(1)
			for _, id := range cands {
				if !st.canInsert(s, id) {
					continue
				}
				switch cost := st.insertCost(s, id); {
				case cost < c1:
					m1, c2, c1 = id, c1, cost
				case cost < c2:
					c2 = cost
				}
			}
			if m1 == cluster.Unassigned {
				cov.fallbacks++
				if m1, c1, c2 = naiveBestTwo(st, s); m1 == cluster.Unassigned {
					return false
				}
			}
			regret := c2 - c1
			if math.IsInf(regret, 1) {
				regret = 1e18 - c1
			}
			if regret > bestRegret {
				bestIdx, bestM, bestRegret = i, m1, regret
			}
		}
		if bestIdx < 0 {
			return false
		}
		s := remaining[bestIdx]
		if st.cur.Cluster().Shards[s].Group != 0 {
			cov.grouped++
		}
		if st.cur.IsVacant(bestM) && st.cur.NumVacant() == st.k+1 {
			cov.flips++
		}
		if err := st.cur.Place(s, bestM); err != nil {
			return false
		}
		remaining[bestIdx] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
	}
	return true
}

// TestRegretRepairMatchesNaive holds regret repair — candidate reads taken
// once per step, the vacancy verdict hoisted out of the scans — to
// naiveRegret: the same placements in the same order, the same return value,
// the same final assignment and the same RNG position, over 40 seeds and
// destroy sizes up to maxDestroy, each repair starting from the placement the
// last one kept. The fleets exercise anti-affinity (CanPlace), the full-scan
// fallback, and a vacancy rule that flips mid-repair: with K+1 machines
// vacant and k = K, the first placement onto a vacant machine closes the
// others.
func TestRegretRepairMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *cluster.Placement
		k    int
		need func(regretCoverage) bool
	}{
		{"replicated48", operatorFleet(t, 48, 240, 2, 0.75, 3), 3, func(c regretCoverage) bool { return c.grouped > 0 }},
		{"tight40", operatorFleet(t, 40, 600, 1, 0.98, 1), 1, func(c regretCoverage) bool { return c.fallbacks > 0 }},
		{"spare-vacancy48", operatorFleet(t, 48, 240, 1, 0.75, 4), 3, func(c regretCoverage) bool { return c.flips > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cov regretCoverage
			for seed := int64(0); seed < 40; seed++ {
				cfg := quickConfig()
				cfg.Seed = seed
				fast, naive := newState(cfg, tc.p, tc.k), newState(cfg, tc.p, tc.k)
				for round, q := range []int{1, 5, 17, 38, maxDestroy, 9} {
					var order [2][][2]int
					var ok [2]bool
					for i, st := range []*state{fast, naive} {
						st.cur.BeginTxn()
						st.pool = st.pool[:0]
						st.destroyRandom(q)
						from := st.cur.TxnLen()
						if i == 0 {
							ok[i] = st.repairRegret()
						} else {
							ok[i] = naiveRegret(st, &cov)
						}
						for j := from; j < st.cur.TxnLen(); j++ {
							s, m := st.cur.TxnOp(j)
							order[i] = append(order[i], [2]int{int(s), int(m)})
						}
					}
					if ok[0] != ok[1] || !slices.Equal(order[0], order[1]) {
						t.Fatalf("seed %d round %d (q=%d): repair returned %v placing %v; naive form %v placing %v",
							seed, round, q, ok[0], order[0], ok[1], order[1])
					}
					if !slices.Equal(fast.cur.Assignment(), naive.cur.Assignment()) {
						t.Fatalf("seed %d round %d: final assignments differ", seed, round)
					}
					for _, st := range []*state{fast, naive} {
						if ok[0] {
							st.cur.Commit()
						} else {
							st.cur.Rollback()
						}
					}
				}
				if a, b := fast.rng.Int63(), naive.rng.Int63(); a != b {
					t.Fatalf("seed %d: RNG streams diverged", seed)
				}
			}
			if !tc.need(cov) {
				t.Errorf("the fleet did not exercise its path: %+v", cov)
			}
		})
	}
}
