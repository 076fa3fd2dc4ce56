package core

import (
	"math"
	"runtime"
	"testing"
)

// TestSolvePartitionedRestartsDeterministicAcrossGOMAXPROCS pins the
// determinism contract the rexlint suite exists to protect: for a fixed
// seed, the restart portfolio must produce a byte-identical assignment and
// bit-identical objective regardless of how much real parallelism the
// runtime provides.
// The solver's worker results are reduced by worker index, not completion
// order, so scheduling must not be observable.
func TestSolvePartitionedRestartsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	inst := smallInstance(t, 99, 2)
	cfg := quickConfig()
	cfg.Seed = 424242

	run := func(procs, restarts int) ([]int32, float64) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		res, err := New(cfg).SolvePartitioned(inst, PartitionConfig{Restarts: restarts})
		if err != nil {
			t.Fatalf("SolvePartitioned with GOMAXPROCS=%d: %v", procs, err)
		}
		assign := res.Final.Assignment()
		out := make([]int32, len(assign))
		for i, m := range assign {
			out[i] = int32(m)
		}
		return out, res.Objective
	}

	serialAssign, serialObj := run(1, 4)
	parallelAssign, parallelObj := run(8, 4)

	if math.Float64bits(serialObj) != math.Float64bits(parallelObj) {
		t.Errorf("objective differs across GOMAXPROCS: %v (serial) vs %v (parallel)",
			serialObj, parallelObj)
	}
	if len(serialAssign) != len(parallelAssign) {
		t.Fatalf("assignment lengths differ: %d vs %d", len(serialAssign), len(parallelAssign))
	}
	for s := range serialAssign {
		if serialAssign[s] != parallelAssign[s] {
			t.Fatalf("shard %d assigned to %d (serial) vs %d (parallel)",
				s, serialAssign[s], parallelAssign[s])
		}
	}

	// The defaulted path (restarts <= 0) must be just as deterministic:
	// the default portfolio width is the pinned DefaultRestarts constant,
	// never GOMAXPROCS, so a 1-core box and an 8-core box run the same
	// searches. (Before the fix, restarts=0 meant GOMAXPROCS restarts, and
	// a 1-core box even skipped seed decorrelation entirely through the
	// restarts == 1 shortcut.)
	defSerialAssign, defSerialObj := run(1, 0)
	defParallelAssign, defParallelObj := run(8, 0)
	if math.Float64bits(defSerialObj) != math.Float64bits(defParallelObj) {
		t.Errorf("defaulted-restarts objective differs across GOMAXPROCS: %v vs %v",
			defSerialObj, defParallelObj)
	}
	for s := range defSerialAssign {
		if defSerialAssign[s] != defParallelAssign[s] {
			t.Fatalf("defaulted restarts: shard %d assigned to %d (serial) vs %d (parallel)",
				s, defSerialAssign[s], defParallelAssign[s])
		}
	}
	if DefaultRestarts == 4 {
		// With the default width equal to this test's explicit width, the
		// defaulted portfolio must be the explicit one exactly.
		if math.Float64bits(defSerialObj) != math.Float64bits(serialObj) {
			t.Errorf("defaulted portfolio diverges from explicit restarts=4: %v vs %v",
				defSerialObj, serialObj)
		}
	}

	// The same run repeated must also be identical to itself (guards
	// against hidden global state between invocations).
	againAssign, againObj := run(8, 4)
	if math.Float64bits(againObj) != math.Float64bits(parallelObj) {
		t.Errorf("objective differs between identical runs: %v vs %v", againObj, parallelObj)
	}
	for s := range againAssign {
		if againAssign[s] != parallelAssign[s] {
			t.Fatalf("shard %d differs between identical runs: %d vs %d",
				s, againAssign[s], parallelAssign[s])
		}
	}
}
