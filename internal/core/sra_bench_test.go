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

// operatorBenchState is a solver state on a 1 000-machine, 8 000-shard fleet
// with the delta kernel ready, for benchmarks that drive single operators.
func operatorBenchState(b *testing.B) *state {
	st := newState(DefaultConfig(), benchFleet(b, 1000, 8000, 42), 0)
	st.curObj = objective(st.cur, st.cfg.SpreadWeight, st.cfg.MovePenalty, st.initial)
	st.initIncremental()
	return st
}

// benchNeighborhood times destroy, then repair when there is one, then the
// rollback, at the largest destroy size. Untimed rounds first grow the scratch
// buffers, the journal and the placement's per-machine shard lists to their
// steady-state capacity, so -benchmem must read 0 allocs/op: the operators
// allocate nothing.
func benchNeighborhood(b *testing.B, st *state, destroy func(*state, int), repair func(*state) bool) {
	round := func() {
		st.kern.begin()
		st.pool = st.pool[:0]
		destroy(st, maxDestroy)
		if repair != nil {
			repair(st)
		}
		st.kern.reject()
	}
	for i := 0; i < 100; i++ {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkOperator times each destroy operator alone (destroy + rollback):
// a repair would cost more than most of them and hide what is measured.
func BenchmarkOperator(b *testing.B) {
	st := operatorBenchState(b)
	for _, op := range st.destroyOps {
		b.Run(op.name, func(b *testing.B) { benchNeighborhood(b, st, op.fn, nil) })
	}
}

// BenchmarkRepair times each repair operator on the pool of a random
// destroy, the cheapest one (random destroy + repair + rollback).
func BenchmarkRepair(b *testing.B) {
	st := operatorBenchState(b)
	for _, op := range st.repairOps {
		b.Run(op.name, func(b *testing.B) { benchNeighborhood(b, st, (*state).destroyRandom, op.fn) })
	}
}
