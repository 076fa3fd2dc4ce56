package core

import (
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

// benchInstance builds an instance for solver benchmarks.
func benchInstance(b *testing.B, machines, shards, k int) *cluster.Placement {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.Machines = machines
	cfg.Shards = shards
	cfg.TargetFill = 0.82
	cfg.Seed = 5
	inst, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if k == 0 {
		return inst.Placement
	}
	ec := inst.Cluster.WithExchange(k, vec.Uniform(100), 1)
	p, err := cluster.FromAssignment(ec, inst.Placement.Assignment())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchSolve measures full Solve calls (iterations per op reported by ns).
func benchSolve(b *testing.B, machines, shards, k, iters int) {
	p := benchInstance(b, machines, shards, k)
	cfg := DefaultConfig()
	cfg.Iterations = iters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg).Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveSmall(b *testing.B)  { benchSolve(b, 20, 300, 2, 200) }
func BenchmarkSolveMedium(b *testing.B) { benchSolve(b, 100, 1500, 4, 200) }

// BenchmarkSolveLarge is the F3-scale working set (400 machines, 6000
// shards) at a reduced iteration budget.
func BenchmarkSolveLarge(b *testing.B) { benchSolve(b, 400, 6000, 4, 60) }

func BenchmarkSolveRestarts4(b *testing.B) {
	p := benchInstance(b, 100, 1500, 4)
	cfg := DefaultConfig()
	cfg.Iterations = 200
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg).SolvePartitioned(p, PartitionConfig{Restarts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObjective(b *testing.B) {
	p := benchInstance(b, 100, 1500, 0)
	initial := p.Assignment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = objective(p, 0.1, 0.02, initial)
	}
}
