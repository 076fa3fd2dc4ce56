package core

// The F4 partitioned-solver sweep: the same global
// iteration budget spent by the whole-cluster solve (p=1, the
// single-partition delegate) versus the partitioned parallel solve at
// several partition counts, on 10k–100k machine fleets. The partitioned
// path wins twice — one LNS iteration costs O(|partition|) instead of
// O(|fleet|) (budget splitting), and partitions solve concurrently — so
// the speedup is architectural on any core count and grows with cores.
//
//	go test ./internal/core -run '^$' -bench PartitionedSweep -benchtime=1x
//	REXCHANGE_FULL=1 ... adds the 100k-machine size.

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
)

// benchFleet builds a three-tier fleet with an O(shards) random first-fit
// placement. Every 5th machine of each shape class stays vacant, so spread
// headroom exists inside every partition a shape partitioning can produce
// (not just in one ID range — that would gift the whole-cluster solve an
// opportunity partitions cannot see and bias the quality comparison), and
// placement probability is proportional to machine speed, so no shape
// class starts structurally overloaded relative to another (the
// equivalence-class setting: the router feeds classes in proportion to
// their capability, and rebalancing fights variance, not class skew).
// Heavy-tailed shard loads leave real per-machine load variance for the
// solver to flatten at any scale, without the O(shards·machines) best-fit
// pass the workload generator uses.
func benchFleet(tb testing.TB, machines, shards int, seed int64) *cluster.Placement {
	tb.Helper()
	c := &cluster.Cluster{
		Machines: make([]cluster.Machine, machines),
		Shards:   make([]cluster.Shard, shards),
	}
	shapes := []cluster.Machine{
		{Capacity: vec.New(64, 512, 10), Speed: 1},
		{Capacity: vec.New(128, 1024, 25), Speed: 1.8},
		{Capacity: vec.New(256, 2048, 40), Speed: 3},
	}
	var dense []cluster.MachineID
	for m := 0; m < machines; m++ {
		c.Machines[m] = shapes[m%len(shapes)]
		c.Machines[m].ID = cluster.MachineID(m)
		if (m/len(shapes))%5 != 4 {
			dense = append(dense, cluster.MachineID(m))
		}
	}
	r := rand.New(rand.NewSource(seed))
	for s := 0; s < shards; s++ {
		load := 0.05 + 0.3*r.Float64()
		if s%10 == 0 {
			load += 2 * r.Float64() // heavy tail so balance is non-trivial
		}
		c.Shards[s] = cluster.Shard{
			ID:     cluster.ShardID(s),
			Static: vec.New(1+r.Float64(), 4+r.Float64(), 0.1),
			Load:   load,
		}
	}
	// Speed-proportional slots: a speed-3 machine draws 3x the shards of a
	// speed-1 machine, so expected utilization is flat across shape classes.
	var slots []cluster.MachineID
	for _, id := range dense {
		n := int(c.Machines[id].Speed * 5) // speeds 1/1.8/3 -> 5/9/15 slots
		for i := 0; i < n; i++ {
			slots = append(slots, id)
		}
	}
	p := cluster.NewPlacement(c)
	for s := 0; s < shards; s++ {
		start := r.Intn(len(slots))
		for off := 0; ; off++ {
			if off >= len(slots) {
				tb.Fatalf("bench fleet too tight: shard %d fits nowhere", s)
			}
			if p.PlaceChecked(cluster.ShardID(s), slots[(start+off)%len(slots)]) {
				break
			}
		}
	}
	return p
}

// benchmarkPartitioned solves one fleet size at one partition count with
// the same global iteration budget; p=1 is the whole-cluster baseline.
func benchmarkPartitioned(b *testing.B, machines, shards, partitions int) {
	p := benchFleet(b, machines, shards, 42)
	cfg := DefaultConfig()
	cfg.Iterations = 2000
	pc := DefaultPartitionConfig()
	pc.Partitions = partitions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := New(cfg).SolvePartitioned(p, pc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Objective, "objective")
			b.ReportMetric(res.After.MaxUtil, "max_util")
		}
	}
}

func BenchmarkPartitionedSweep(b *testing.B) {
	sizes := []struct{ machines, shards int }{
		{10000, 150000},
	}
	if os.Getenv("REXCHANGE_FULL") == "1" {
		sizes = append(sizes, struct{ machines, shards int }{100000, 1500000})
	}
	for _, sz := range sizes {
		for _, parts := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("m%d_p%d", sz.machines, parts), func(b *testing.B) {
				benchmarkPartitioned(b, sz.machines, sz.shards, parts)
			})
		}
	}
}
