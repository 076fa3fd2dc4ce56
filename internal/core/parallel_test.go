package core

import (
	"testing"
)

// The tests in this file cover the restart portfolio SolvePartitioned runs
// when the fleet solves as one partition. They keep the names they had when
// the portfolio was its own entry point.

func TestSolvePartitionedRestartsAtLeastAsGoodAsSingle(t *testing.T) {
	p := smallInstance(t, 55, 2)
	cfg := quickConfig()
	cfg.Iterations = 200
	single, err := New(cfg).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := New(cfg).SolvePartitioned(p, PartitionConfig{Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	// restart 0 uses the base seed, so the portfolio includes the single
	// run: the best of the portfolio cannot be worse.
	if multi.Objective > single.Objective+1e-12 {
		t.Errorf("parallel best %v worse than single %v", multi.Objective, single.Objective)
	}
	if !multi.Final.Feasible() {
		t.Error("parallel result infeasible")
	}
	if _, err := multi.Plan.Validate(p); err != nil {
		t.Errorf("parallel result plan invalid: %v", err)
	}
}

func TestSolvePartitionedRestartsDeterministic(t *testing.T) {
	cfg := quickConfig()
	cfg.Iterations = 150
	a, err := New(cfg).SolvePartitioned(smallInstance(t, 56, 1), PartitionConfig{Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg).SolvePartitioned(smallInstance(t, 56, 1), PartitionConfig{Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.MovedShards != b.MovedShards {
		t.Errorf("non-deterministic: %v/%d vs %v/%d",
			a.Objective, a.MovedShards, b.Objective, b.MovedShards)
	}
}

func TestSolvePartitionedRestartsInputUntouched(t *testing.T) {
	p := smallInstance(t, 57, 1)
	before := p.Assignment()
	cfg := quickConfig()
	cfg.Iterations = 100
	if _, err := New(cfg).SolvePartitioned(p, PartitionConfig{Restarts: 4}); err != nil {
		t.Fatal(err)
	}
	for s, m := range p.Assignment() {
		if before[s] != m {
			t.Fatal("parallel solve mutated input")
		}
	}
}

func TestSolvePartitionedRestartsSingleRestartDelegates(t *testing.T) {
	p := smallInstance(t, 58, 1)
	cfg := quickConfig()
	cfg.Iterations = 100
	a, err := New(cfg).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg).SolvePartitioned(p, PartitionConfig{Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective {
		t.Errorf("restarts=1 should equal Solve: %v vs %v", a.Objective, b.Objective)
	}
}

// The worker-seed pairwise-distinctness regression (including the
// historical additive-stride collision shape) moved to internal/rng with
// the seed-derivation helpers;
// TestSolvePartitionedRestartsAtLeastAsGoodAsSingle above still pins that
// restart 0 runs the base-seed search.

// TestSolvePartitionedRestartsPropagatesErrors pins where a bad placement is
// reported: through the portfolio ("all N restarts failed") when the call
// asks for one partition, bare when it asks for several or for a single
// restart — the texts journals already carry.
func TestSolvePartitionedRestartsPropagatesErrors(t *testing.T) {
	p := smallInstance(t, 59, 1)
	q := p.Clone()
	if err := q.Remove(0); err != nil {
		t.Fatal(err)
	}
	const bare = "core: initial placement has 1 unassigned shards"
	for _, tc := range []struct {
		pc   PartitionConfig
		want string
	}{
		{PartitionConfig{Restarts: 3}, "core: all 3 restarts failed: " + bare},
		{PartitionConfig{Restarts: 1}, bare},
		{PartitionConfig{Partitions: 3, Restarts: 3}, bare},
	} {
		_, err := New(quickConfig()).SolvePartitioned(q, tc.pc)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%+v: error %v, want %q", tc.pc, err, tc.want)
		}
	}
}
