package core

import (
	"math"
	"math/rand"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

// smallInstance builds a deterministic imbalanced instance with k exchange
// machines appended.
func smallInstance(t *testing.T, seed int64, k int) *cluster.Placement {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Machines = 12
	cfg.Shards = 120
	cfg.TargetFill = 0.75
	cfg.Seed = seed
	inst, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k == 0 {
		return inst.Placement
	}
	ec := inst.Cluster.WithExchange(k, vec.New(100, 100, 100), 1)
	p, err := cluster.FromAssignment(ec, inst.Placement.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Iterations = 300
	return cfg
}

func TestSolveImprovesBalance(t *testing.T) {
	p := smallInstance(t, 3, 2)
	res, err := New(quickConfig()).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.After.Imbalance >= res.Before.Imbalance {
		t.Errorf("imbalance did not improve: %.4f → %.4f", res.Before.Imbalance, res.After.Imbalance)
	}
	if res.After.MaxUtil > res.Before.MaxUtil {
		t.Errorf("max utilization rose: %.4f → %.4f", res.Before.MaxUtil, res.After.MaxUtil)
	}
	if !res.Final.Feasible() {
		t.Error("final placement must be statically feasible")
	}
	if err := res.Final.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSolveVacancyContract(t *testing.T) {
	const k = 3
	p := smallInstance(t, 4, k)
	res, err := New(quickConfig()).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.NumVacant() < k {
		t.Fatalf("final has %d vacant machines, need ≥ %d", res.Final.NumVacant(), k)
	}
	if len(res.Returned) != k {
		t.Fatalf("returned %d machines, want %d", len(res.Returned), k)
	}
	seen := map[cluster.MachineID]bool{}
	for _, m := range res.Returned {
		if !res.Final.IsVacant(m) {
			t.Errorf("returned machine %d is not vacant", m)
		}
		if seen[m] {
			t.Errorf("machine %d returned twice", m)
		}
		seen[m] = true
	}
}

func TestSolvePlanReplays(t *testing.T) {
	p := smallInstance(t, 5, 2)
	res, err := New(quickConfig()).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Plan.Validate(p)
	if err != nil {
		t.Fatalf("move schedule invalid: %v", err)
	}
	for s := 0; s < p.Cluster().NumShards(); s++ {
		id := cluster.ShardID(s)
		if got.Home(id) != res.Final.Home(id) {
			t.Fatalf("plan realizes different placement at shard %d", s)
		}
	}
	if res.MovedShards == 0 {
		t.Error("expected some shards to move")
	}
	if res.Plan.NumMoves() < res.MovedShards {
		t.Errorf("plan has %d moves for %d moved shards", res.Plan.NumMoves(), res.MovedShards)
	}
}

func TestSolveDeterministic(t *testing.T) {
	a, err := New(quickConfig()).Solve(smallInstance(t, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(quickConfig()).Solve(smallInstance(t, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective {
		t.Errorf("same seed, different objectives: %v vs %v", a.Objective, b.Objective)
	}
	if a.MovedShards != b.MovedShards {
		t.Errorf("same seed, different move counts: %d vs %d", a.MovedShards, b.MovedShards)
	}
}

func TestSolveInputNotModified(t *testing.T) {
	p := smallInstance(t, 7, 1)
	before := p.Assignment()
	if _, err := New(quickConfig()).Solve(p); err != nil {
		t.Fatal(err)
	}
	after := p.Assignment()
	for s := range before {
		if before[s] != after[s] {
			t.Fatalf("input placement mutated at shard %d", s)
		}
	}
}

func TestSolveNoExchange(t *testing.T) {
	p := smallInstance(t, 8, 0)
	res, err := New(quickConfig()).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Returned) != 0 {
		t.Errorf("K=0 run returned machines: %v", res.Returned)
	}
	// Still expected to improve at moderate fill.
	if res.After.MaxUtil > res.Before.MaxUtil {
		t.Errorf("max utilization rose without exchange: %.4f → %.4f", res.Before.MaxUtil, res.After.MaxUtil)
	}
}

func TestSolveWithExchangeBeatsWithout(t *testing.T) {
	// At very high fill the exchange machines should enable strictly more
	// improvement. Use a tight instance.
	gen := workload.DefaultConfig()
	gen.Machines = 10
	gen.Shards = 100
	gen.TargetFill = 0.93
	gen.Seed = 11
	inst, err := workload.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Iterations = 1500

	noEx, err := New(cfg).Solve(inst.Placement)
	if err != nil {
		t.Fatal(err)
	}
	ec := inst.Cluster.WithExchange(2, vec.New(100, 100, 100), 1)
	ep, err := cluster.FromAssignment(ec, inst.Placement.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	withEx, err := New(cfg).Solve(ep)
	if err != nil {
		t.Fatal(err)
	}
	// Both searches are stochastic with different search spaces; allow 1%
	// slack but the exchange run must not be meaningfully worse.
	if withEx.After.MaxUtil > noEx.After.MaxUtil*1.01 {
		t.Errorf("exchange run worse than no-exchange: %.4f vs %.4f",
			withEx.After.MaxUtil, noEx.After.MaxUtil)
	}
}

func TestConfigValidation(t *testing.T) {
	p := smallInstance(t, 9, 1)

	cfg := quickConfig()
	cfg.Iterations = 0
	if _, err := New(cfg).Solve(p); err == nil {
		t.Error("expected error for zero iterations")
	}

	cfg = quickConfig()
	cfg.Operators = OperatorSet{}
	if _, err := New(cfg).Solve(p); err == nil {
		t.Error("expected error for empty operator set")
	}

	cfg = quickConfig()
	cfg.ReturnCount = 50 // more than vacant machines available
	if _, err := New(cfg).Solve(p); err == nil {
		t.Error("expected error for impossible ReturnCount")
	}

	// partial placement
	q := p.Clone()
	if err := q.Remove(0); err != nil {
		t.Fatal(err)
	}
	if _, err := New(quickConfig()).Solve(q); err == nil {
		t.Error("expected error for partial placement")
	}
}

func TestOperatorSubsets(t *testing.T) {
	subsets := []OperatorSet{
		{RandomRemove: true, GreedyRepair: true},
		{WorstRemove: true, GreedyRepair: true},
		{RelatedRemove: true, RegretRepair: true},
		{DrainRemove: true, GreedyRepair: true},
		{RandomRemove: true, RegretRepair: true},
	}
	for i, ops := range subsets {
		cfg := quickConfig()
		cfg.Iterations = 150
		cfg.Operators = ops
		res, err := New(cfg).Solve(smallInstance(t, 20+int64(i), 1))
		if err != nil {
			t.Fatalf("subset %d: %v", i, err)
		}
		if !res.Final.Feasible() {
			t.Errorf("subset %d: infeasible final placement", i)
		}
	}
}

func TestHillClimbMode(t *testing.T) {
	cfg := quickConfig()
	cfg.HillClimb = true
	res, err := New(cfg).Solve(smallInstance(t, 12, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.After.MaxUtil > res.Before.MaxUtil {
		t.Error("hill climb must never worsen the best solution")
	}
}

func TestTrajectoryMonotone(t *testing.T) {
	cfg := quickConfig()
	cfg.KeepTrajectory = true
	res, err := New(cfg).Solve(smallInstance(t, 13, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != cfg.Iterations {
		t.Fatalf("trajectory length %d, want %d", len(res.Trajectory), cfg.Iterations)
	}
	for i := 1; i < len(res.Trajectory); i++ {
		if res.Trajectory[i] > res.Trajectory[i-1]+1e-12 {
			t.Fatalf("best-objective trajectory rose at %d: %v → %v",
				i, res.Trajectory[i-1], res.Trajectory[i])
		}
	}
}

func TestObjectivePrefersBalance(t *testing.T) {
	c := &cluster.Cluster{
		Machines: []cluster.Machine{
			{ID: 0, Capacity: vec.Uniform(10), Speed: 1},
			{ID: 1, Capacity: vec.Uniform(10), Speed: 1},
		},
		Shards: []cluster.Shard{
			{ID: 0, Static: vec.Uniform(1), Load: 4},
			{ID: 1, Static: vec.Uniform(1), Load: 4},
		},
	}
	lopsided, _ := cluster.FromAssignment(c, []cluster.MachineID{0, 0})
	even, _ := cluster.FromAssignment(c, []cluster.MachineID{0, 1})
	cfg := DefaultConfig()
	if Evaluate(cfg, even, nil) >= Evaluate(cfg, lopsided, nil) {
		t.Error("balanced placement should score lower")
	}
}

func TestObjectiveMovePenalty(t *testing.T) {
	c := &cluster.Cluster{
		Machines: []cluster.Machine{
			{ID: 0, Capacity: vec.Uniform(10), Speed: 1},
			{ID: 1, Capacity: vec.Uniform(10), Speed: 1},
		},
		Shards: []cluster.Shard{
			{ID: 0, Static: vec.Uniform(1), Load: 1},
			{ID: 1, Static: vec.Uniform(1), Load: 1},
		},
	}
	even, _ := cluster.FromAssignment(c, []cluster.MachineID{0, 1})
	initial := []cluster.MachineID{0, 1}
	swapped := []cluster.MachineID{1, 0}
	evenSwapped, _ := cluster.FromAssignment(c, swapped)
	cfg := DefaultConfig()
	same := Evaluate(cfg, even, initial)
	moved := Evaluate(cfg, evenSwapped, initial)
	if moved <= same {
		t.Error("moving shards without balance gain should cost")
	}
}

func TestPickReturnedPrefersExchange(t *testing.T) {
	c := &cluster.Cluster{
		Machines: []cluster.Machine{
			{ID: 0, Capacity: vec.Uniform(10), Speed: 1},
			{ID: 1, Capacity: vec.Uniform(10), Speed: 0.5},
			{ID: 2, Capacity: vec.Uniform(10), Speed: 1, Exchange: true},
		},
		Shards: []cluster.Shard{{ID: 0, Static: vec.Uniform(1), Load: 1}},
	}
	p, _ := cluster.FromAssignment(c, []cluster.MachineID{0})
	// vacant: 1 (speed .5) and 2 (exchange). K=1 → must pick the exchange.
	got := pickReturned(p, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("pickReturned = %v, want [2]", got)
	}
	// K=2 → exchange then slowest
	got = pickReturned(p, 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Errorf("pickReturned = %v, want [2 1]", got)
	}
	// K larger than vacancy is clamped defensively
	if got := pickReturned(p, 5); len(got) != 2 {
		t.Errorf("pickReturned over-request = %v", got)
	}
}

func TestTempAt(t *testing.T) {
	if tempAt(0, 0, 5, 10) != 0 {
		t.Error("zero t0 should yield zero temperature")
	}
	t0, tEnd := 1.0, 0.01
	first := tempAt(t0, tEnd, 0, 100)
	last := tempAt(t0, tEnd, 99, 100)
	if math.Abs(first-t0) > 1e-9 {
		t.Errorf("first temp = %v", first)
	}
	if math.Abs(last-tEnd) > 1e-9 {
		t.Errorf("last temp = %v", last)
	}
	mid := tempAt(t0, tEnd, 50, 100)
	if mid >= first || mid <= last {
		t.Errorf("temperature not interpolating: %v", mid)
	}
}

func TestRouletteIndex(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	counts := make([]int, 3)
	w := []float64{1, 0, 3}
	for i := 0; i < 4000; i++ {
		counts[rouletteIndex(r, w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight op selected %d times", counts[1])
	}
	if counts[2] < 2*counts[0] {
		t.Errorf("weights not respected: %v", counts)
	}
	// all-zero weights → uniform fallback
	z := []float64{0, 0}
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[rouletteIndex(r, z)] = true
	}
	if len(seen) != 2 {
		t.Errorf("uniform fallback broken: %v", seen)
	}
}

func TestSolveInternalInvariants(t *testing.T) {
	// Run a short solve and recheck the final placement's incremental
	// aggregates from scratch.
	res, err := New(quickConfig()).Solve(smallInstance(t, 14, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Final.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Accepted == 0 {
		t.Error("expected the search to accept at least one move")
	}
}
