package experiments

import (
	"fmt"
	"sort"

	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

// Scale selects experiment sizing. Quick shrinks every sweep so the full
// suite runs in seconds (used by unit tests and -quick CLI runs); the
// default sizes match the instances reported in EXPERIMENTS.md.
type Scale struct {
	Quick bool
}

// sel picks q in Quick mode and f otherwise.
func (s Scale) sel(q, f int) int {
	if s.Quick {
		return q
	}
	return f
}

// genInstance builds a synthetic instance with the given sizing.
func genInstance(machines, shards int, fill float64, seed int64) (*cluster.Placement, error) {
	cfg := workload.DefaultConfig()
	cfg.Machines = machines
	cfg.Shards = shards
	cfg.TargetFill = fill
	cfg.Seed = seed
	inst, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return inst.Placement, nil
}

// genSmallHetero builds a small heterogeneous instance for the exact-
// optimum experiment: distinct machine speeds break the machine-permutation
// symmetry that otherwise cripples branch-and-bound.
func genSmallHetero(machines, shards int, seed int64) (*cluster.Placement, error) {
	cfg := workload.DefaultConfig()
	cfg.Machines = machines
	cfg.Shards = shards
	cfg.TargetFill = 0.55
	cfg.Seed = seed
	cfg.Tiers = []workload.MachineTier{
		{Capacity: vec.New(100, 100, 100), Speed: 1.0, Weight: 1},
		{Capacity: vec.New(140, 140, 140), Speed: 1.5, Weight: 1},
		{Capacity: vec.New(180, 180, 180), Speed: 2.1, Weight: 1},
	}
	inst, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	// Perturb speeds slightly so even same-tier machines are distinct.
	c := inst.Cluster
	for m := range c.Machines {
		c.Machines[m].Speed *= 1 + 0.01*float64(m)
	}
	return inst.Placement, nil
}

// genRealistic builds a realistic-trace instance with the given sizing.
func genRealistic(machines, shards int, seed int64) (*cluster.Placement, error) {
	cfg := workload.RealisticConfig()
	cfg.Machines = machines
	cfg.Shards = shards
	cfg.Seed = seed
	inst, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return inst.Placement, nil
}

// solverConfig returns the SRA configuration used by the experiments,
// scaled by iteration budget.
func solverConfig(iters int, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Iterations = iters
	cfg.Seed = seed
	return cfg
}

// repackTarget computes a load-balanced target placement from scratch,
// ignoring where shards currently are (and ignoring move feasibility):
// shards sorted by descending load are best-fit onto the machine that
// minimizes resulting utilization, keeping `keepVacant` machines empty.
// It is the "desired state" generator for the T3 planning experiment.
func repackTarget(p *cluster.Placement, keepVacant int) (*cluster.Placement, error) {
	c := p.Cluster()
	t := cluster.NewPlacement(c)
	order := make([]cluster.ShardID, c.NumShards())
	for i := range order {
		order[i] = cluster.ShardID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := c.Shards[order[i]].Load, c.Shards[order[j]].Load
		if a != b {
			return a > b
		}
		return order[i] < order[j]
	})
	for _, s := range order {
		best := cluster.Unassigned
		bestU := 0.0
		for m := 0; m < c.NumMachines(); m++ {
			id := cluster.MachineID(m)
			if t.IsVacant(id) && t.NumVacant() <= keepVacant {
				continue
			}
			if !t.CanPlace(s, id) {
				continue
			}
			u := (t.Load(id) + c.Shards[s].Load) / c.Machines[m].Speed
			if best == cluster.Unassigned || u < bestU {
				best, bestU = id, u
			}
		}
		if best == cluster.Unassigned {
			return nil, fmt.Errorf("experiments: repack failed for shard %d", s)
		}
		if err := t.Place(s, best); err != nil {
			return nil, err
		}
	}
	return t, nil
}
