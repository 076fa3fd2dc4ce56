package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/rng"
	"rexchange/internal/vec"
)

// partitionedInstance builds a three-shape fleet (so PartitionByShape has
// real equivalence classes) with k borrowed exchange machines appended and
// a skewed pseudo-random initial placement that leaves the exchange
// machines vacant.
func partitionedInstance(t *testing.T, machines, shards int, seed int64, k int) *cluster.Placement {
	t.Helper()
	c := &cluster.Cluster{}
	shapes := []cluster.Machine{
		{Capacity: vec.New(64, 512, 10), Speed: 1},
		{Capacity: vec.New(128, 1024, 25), Speed: 1.8},
		{Capacity: vec.New(256, 2048, 40), Speed: 3},
	}
	for m := 0; m < machines; m++ {
		mm := shapes[m%len(shapes)]
		mm.ID = cluster.MachineID(m)
		c.Machines = append(c.Machines, mm)
	}
	r := rand.New(rand.NewSource(seed))
	for s := 0; s < shards; s++ {
		c.Shards = append(c.Shards, cluster.Shard{
			ID:     cluster.ShardID(s),
			Static: vec.New(1+r.Float64(), 4+r.Float64(), 0.1),
			Load:   0.2 + r.Float64(),
		})
	}
	if k > 0 {
		c = c.WithExchange(k, vec.New(64, 512, 10), 1)
	}
	p := cluster.NewPlacement(c)
	for s := 0; s < shards; s++ {
		for {
			// Skew toward low machine IDs so the instance is imbalanced.
			m := cluster.MachineID(r.Intn(machines))
			if m2 := cluster.MachineID(r.Intn(machines)); m2 < m {
				m = m2
			}
			if p.PlaceChecked(cluster.ShardID(s), m) {
				break
			}
		}
	}
	return p
}

// TestSolvePartitionedSinglePartitionBitIdentical pins the golden
// equivalence the one entry point is built on: when the fleet solves as one
// partition and the portfolio is one restart wide, SolvePartitioned IS
// Solve — bit-identical objective and byte-identical assignment, not merely
// equivalent quality. (The view layer's half of the property — an
// all-machines view is a bit-exact replica — is pinned by
// cluster.TestViewIdentityIsBitExact.)
func TestSolvePartitionedSinglePartitionBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *cluster.Placement
		pc   PartitionConfig
	}{
		{"partitions=1", partitionedInstance(t, 18, 120, 7, 2), PartitionConfig{Partitions: 1, Restarts: 1}},
		// Three machines cannot make two partitions of
		// minPartitionMachines, whatever the target.
		{"tiny fleet", partitionedInstance(t, 3, 20, 7, 0), PartitionConfig{Partitions: 3, Restarts: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickConfig()
			want, err := New(cfg).Solve(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := New(cfg).SolvePartitioned(tc.p, tc.pc)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
				t.Errorf("objective bits differ: %x vs %x",
					math.Float64bits(got.Objective), math.Float64bits(want.Objective))
			}
			wantAssign, gotAssign := want.Final.Assignment(), got.Final.Assignment()
			for s := range wantAssign {
				if wantAssign[s] != gotAssign[s] {
					t.Fatalf("shard %d differs: %d vs %d", s, gotAssign[s], wantAssign[s])
				}
			}
			if got.MovedShards != want.MovedShards {
				t.Errorf("MovedShards %d, want %d", got.MovedShards, want.MovedShards)
			}
		})
	}
}

// assignmentHash is FNV-1a over p's assignment, four little-endian bytes per
// shard: what the pinned-trajectory tests compare.
func assignmentHash(p *cluster.Placement) uint64 {
	h := fnv.New64a()
	for _, m := range p.Assignment() {
		h.Write([]byte{byte(m), byte(m >> 8), byte(m >> 16), byte(m >> 24)})
	}
	return h.Sum64()
}

// TestSolvePartitionedRestartsPinned pins the restart portfolio to the bits
// it produced as an entry point of its own, before it was folded into
// SolvePartitioned: rng.WorkerSeed seeds, objective-then-index reduction,
// and Restarts <= 0 meaning DefaultRestarts. At 100 iterations restart 3
// wins (so the defaulted width must be 4, not 3); at 380 restart 1 wins.
func TestSolvePartitionedRestartsPinned(t *testing.T) {
	for _, tc := range []struct {
		iterations, restarts int
		objective, assign    uint64
	}{
		{100, 1, 0x3fe5e984529a6f64, 0x4c55c97de5e4af01},
		{100, 3, 0x3fe5e984529a6f64, 0x4c55c97de5e4af01},
		{100, 0, 0x3fe5e546aa36cc70, 0xb4e013001a2e4534},
		{380, 1, 0x3fe5d560b5e26fa3, 0xa3ff9e84a9ce42e7},
		{380, 3, 0x3fe5d160b4d8847b, 0x902c9c0583d420ee},
		{380, 0, 0x3fe5d160b4d8847b, 0x902c9c0583d420ee},
	} {
		cfg := quickConfig()
		cfg.Iterations = tc.iterations
		res, err := New(cfg).SolvePartitioned(smallInstance(t, 56, 1), PartitionConfig{Restarts: tc.restarts})
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(res.Objective); got != tc.objective {
			t.Errorf("iterations=%d restarts=%d: objective bits %#x, want %#x", tc.iterations, tc.restarts, got, tc.objective)
		}
		if got := assignmentHash(res.Final); got != tc.assign {
			t.Errorf("iterations=%d restarts=%d: assignment hash %#x, want %#x", tc.iterations, tc.restarts, got, tc.assign)
		}
		if res.FailedRestarts != 0 {
			t.Errorf("iterations=%d restarts=%d: FailedRestarts = %d", tc.iterations, tc.restarts, res.FailedRestarts)
		}
	}
}

// TestSolvePartitionedClosedEquivalence is the partition-closed golden
// test: with exchange disabled, the partitioned solve must be exactly the
// composition of independent per-partition solves — same partitioning, same
// seeds, same budget slices — reproduced here by hand and compared
// bit-for-bit.
func TestSolvePartitionedClosedEquivalence(t *testing.T) {
	p := partitionedInstance(t, 30, 240, 11, 2)
	cfg := quickConfig()
	pc := PartitionConfig{Partitions: 3, ExchangeRounds: 0}
	res, err := New(cfg).SolvePartitioned(p, pc)
	if err != nil {
		t.Fatal(err)
	}

	parts := cluster.PartitionByShape(p.Cluster(), cluster.PartitionOptions{Target: 3, MinMachines: 2})
	if len(parts) < 2 {
		t.Fatalf("fixture must factor into multiple partitions, got %d", len(parts))
	}
	work := p.Clone()
	initial := p.Assignment()
	totalShards := p.Cluster().NumShards()
	kByPart := splitReturnCount(work, parts, 2)
	for pi, part := range parts {
		v, err := cluster.NewPlacementView(work, part)
		if err != nil {
			t.Fatal(err)
		}
		if v.NumShards() == 0 {
			continue
		}
		pcfg := cfg
		pcfg.Seed = rng.CellSeed(cfg.Seed, 0, pi)
		pcfg.Iterations = sliceIterations(cfg.Iterations, v.NumShards(), totalShards, 50)
		pcfg.ReturnCount = kByPart[pi]
		sub, err := New(pcfg).Solve(v.Sub())
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Apply(work, sub.Final); err != nil {
			t.Fatal(err)
		}
	}
	composedObj := objective(work, cfg.SpreadWeight, cfg.MovePenalty, initial)
	initialObj := objective(p, cfg.SpreadWeight, cfg.MovePenalty, nil)

	if composedObj < initialObj-1e-12 {
		if math.Float64bits(res.Objective) != math.Float64bits(composedObj) {
			t.Errorf("partitioned objective bits %x, hand-composed %x",
				math.Float64bits(res.Objective), math.Float64bits(composedObj))
		}
		wantAssign := work.Assignment()
		gotAssign := res.Final.Assignment()
		for s := range wantAssign {
			if wantAssign[s] != gotAssign[s] {
				t.Fatalf("shard %d: partitioned solve %d, hand-composed %d", s, gotAssign[s], wantAssign[s])
			}
		}
	} else {
		// Composition did not improve on the initial placement, so the
		// solver must have returned the initial placement unchanged.
		for s, m := range initial {
			if res.Final.Home(cluster.ShardID(s)) != m {
				t.Fatalf("non-improving composition, but shard %d moved", s)
			}
		}
	}
}

// TestSolvePartitionedImprovesAndKeepsContract exercises the full path —
// multiple partitions, exchange rounds — and checks the solution quality
// and resource-exchange contract survive the decomposition.
func TestSolvePartitionedImprovesAndKeepsContract(t *testing.T) {
	const k = 2
	p := partitionedInstance(t, 30, 240, 13, k)
	cfg := quickConfig()
	pc := DefaultPartitionConfig()
	pc.Partitions = 3
	res, err := New(cfg).SolvePartitioned(p, pc)
	if err != nil {
		t.Fatal(err)
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
	if res.Final.NumVacant() < k {
		t.Errorf("final placement has %d vacant machines, contract requires ≥ %d", res.Final.NumVacant(), k)
	}
	if len(res.Returned) != k {
		t.Fatalf("returned %d machines, want %d", len(res.Returned), k)
	}
	for _, m := range res.Returned {
		if !res.Final.IsVacant(m) {
			t.Errorf("returned machine %d is not vacant", m)
		}
	}
	if res.Plan == nil {
		t.Error("partitioned solve must produce a move schedule")
	}
	if res.Iterations == 0 {
		t.Error("no iterations recorded")
	}
	if res.FailedPartitions != 0 {
		t.Errorf("unexpected failed partitions: %d", res.FailedPartitions)
	}
}

// TestSolvePartitionedDeterministicAcrossGOMAXPROCS extends the solver's
// determinism contract to the partitioned path: partition results are
// slotted by index, applied in index order, and the exchange phase is
// sequential, so scheduling must not be observable in the result.
func TestSolvePartitionedDeterministicAcrossGOMAXPROCS(t *testing.T) {
	p := partitionedInstance(t, 30, 240, 17, 2)
	cfg := quickConfig()
	cfg.Seed = 424242
	pc := DefaultPartitionConfig()
	pc.Partitions = 4

	run := func(procs int) ([]cluster.MachineID, float64) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		res, err := New(cfg).SolvePartitioned(p, pc)
		if err != nil {
			t.Fatalf("SolvePartitioned with GOMAXPROCS=%d: %v", procs, err)
		}
		return res.Final.Assignment(), res.Objective
	}
	serialAssign, serialObj := run(1)
	parallelAssign, parallelObj := run(8)
	if math.Float64bits(serialObj) != math.Float64bits(parallelObj) {
		t.Errorf("objective differs across GOMAXPROCS: %v vs %v", serialObj, parallelObj)
	}
	for s := range serialAssign {
		if serialAssign[s] != parallelAssign[s] {
			t.Fatalf("shard %d assigned to %d (serial) vs %d (parallel)",
				s, serialAssign[s], parallelAssign[s])
		}
	}
}

// TestSolvePartitionedRollback pins the failure semantics: a failed
// partition sub-solve must leave both the caller's placement and the failed
// partition's region of the result untouched, and be surfaced in
// Result.FailedPartitions rather than silently absorbed.
func TestSolvePartitionedRollback(t *testing.T) {
	p := partitionedInstance(t, 30, 240, 19, 2)
	before := p.Assignment()
	cfg := quickConfig()
	pc := PartitionConfig{Partitions: 3, ExchangeRounds: 0}
	pc.failPartition = 1
	res, err := New(cfg).SolvePartitioned(p, pc)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedPartitions != 1 {
		t.Fatalf("FailedPartitions = %d, want 1", res.FailedPartitions)
	}
	// The input placement is never modified, failed run or not.
	for s, m := range p.Assignment() {
		if before[s] != m {
			t.Fatalf("input placement mutated at shard %d", s)
		}
	}
	// Every shard initially hosted in the failed partition stays put.
	parts := cluster.PartitionByShape(p.Cluster(), cluster.PartitionOptions{Target: 3, MinMachines: 2})
	inFailed := make(map[cluster.MachineID]bool)
	for _, m := range parts[0] {
		inFailed[m] = true
	}
	held := 0
	for s, m := range before {
		if !inFailed[m] {
			continue
		}
		held++
		if res.Final.Home(cluster.ShardID(s)) != m {
			t.Fatalf("shard %d left the failed partition's pre-solve home", s)
		}
	}
	if held == 0 {
		t.Fatal("fixture hosted no shards in the failed partition; test proves nothing")
	}
	if err := res.Final.Validate(); err != nil {
		t.Error(err)
	}
}

// TestExchangePhaseTradesTowardCool drives exchangePhase directly on a
// hand-built imbalance: everything hosted in one partition, a vacancy-rich
// second partition. The phase must offload shards, re-home a vacant
// machine into the hot partition, keep the vacancy floors, and report the
// touched partitions as dirty.
func TestExchangePhaseTradesTowardCool(t *testing.T) {
	c := &cluster.Cluster{}
	for m := 0; m < 8; m++ {
		shape := cluster.Machine{ID: cluster.MachineID(m), Capacity: vec.New(64, 512, 10), Speed: 1}
		if m >= 4 {
			shape.Capacity = vec.New(128, 1024, 25)
			shape.Speed = 2
		}
		c.Machines = append(c.Machines, shape)
	}
	for s := 0; s < 12; s++ {
		c.Shards = append(c.Shards, cluster.Shard{
			ID: cluster.ShardID(s), Static: vec.New(1, 4, 0.1), Load: 1,
		})
	}
	p := cluster.NewPlacement(c)
	for s := 0; s < 12; s++ {
		// All load piles on machines 0 and 1: partition {0..3} is hot.
		if err := p.Place(cluster.ShardID(s), cluster.MachineID(s%2)); err != nil {
			t.Fatal(err)
		}
	}
	parts := [][]cluster.MachineID{{0, 1, 2, 3}, {4, 5, 6, 7}}
	kByPart := []int{0, 1}

	ex := exchangePhase(p, parts, kByPart)
	if ex.shardMoves == 0 {
		t.Error("exchange moved no shards despite gross imbalance")
	}
	if ex.vacantTrades == 0 {
		t.Error("exchange re-homed no vacant machine into the hot partition")
	}
	if len(parts[0])+len(parts[1]) != 8 {
		t.Fatalf("machines lost: %d + %d", len(parts[0]), len(parts[1]))
	}
	if len(parts[0]) != 5 {
		t.Errorf("hot partition has %d machines after trade, want 5", len(parts[0]))
	}
	coolVacant := 0
	for _, m := range parts[1] {
		if p.IsVacant(m) {
			coolVacant++
		}
	}
	if coolVacant < kByPart[1] {
		t.Errorf("cool partition vacancy %d fell below its floor %d", coolVacant, kByPart[1])
	}
	if len(ex.dirty) != 2 || ex.dirty[0] != 0 || ex.dirty[1] != 1 {
		t.Errorf("dirty = %v, want [0 1]", ex.dirty)
	}
	if err := cluster.CheckPartition(c, parts); err != nil {
		t.Error(err)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSplitReturnCountRespectsVacancy checks the K-splitting arithmetic:
// shares sum to K, never exceed a partition's own vacancy, and are
// deterministic.
func TestSplitReturnCountRespectsVacancy(t *testing.T) {
	p := partitionedInstance(t, 30, 120, 23, 4)
	parts := cluster.PartitionByShape(p.Cluster(), cluster.PartitionOptions{Target: 4, MinMachines: 2})
	partOf := partIndex(p.Cluster(), parts)
	vac := make([]int, len(parts))
	p.EachVacant(func(m cluster.MachineID) { vac[partOf[m]]++ })

	for k := 0; k <= 4; k++ {
		ks := splitReturnCount(p, parts, k)
		sum := 0
		for pi, ki := range ks {
			if ki > vac[pi] {
				t.Fatalf("k=%d: partition %d assigned %d returns but has only %d vacant", k, pi, ki, vac[pi])
			}
			sum += ki
		}
		if sum != k {
			t.Fatalf("k=%d: shares sum to %d", k, sum)
		}
	}
}
