package core

import (
	"testing"

	"rexchange/internal/cluster"
)

// TestDeltaKernelAllocFree proves the //rexlint:noalloc annotations on the
// delta kernel (incremental.go, cluster/txn.go) against the runtime: a full
// journal → sync → evaluate → rollback cycle performs zero heap
// allocations per iteration once the reusable buffers are warm. alloccheck
// verifies the same property statically over the call graph; this test
// keeps the static proof honest.
func TestDeltaKernelAllocFree(t *testing.T) {
	if cluster.DebugAsserts {
		// The invariant hooks allocate by design; alloccheck folds them
		// away as dead under the default build, which is the one the
		// zero-allocation claim is about.
		t.Skip("debugasserts build: invariant hooks allocate on the kernel path")
	}
	p := smallInstance(t, 11, 0)
	st := newState(DefaultConfig(), p, 0)
	st.initIncremental()

	shard := cluster.ShardID(0)
	otherMachine := func() cluster.MachineID {
		home := st.cur.Home(shard)
		if home == 0 {
			return 1
		}
		return 0
	}

	cycle := func() {
		st.cur.BeginTxn()
		st.saveObjState()
		st.cur.Move(shard, otherMachine())
		st.syncTouched()
		_ = st.evalIncremental()
		st.rollbackIncremental()
	}
	// Warm up: grow the journal's backing array to its steady-state
	// capacity (amortized growth, which must not count here).
	for i := 0; i < 8; i++ {
		cycle()
	}

	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("delta kernel cycle allocates %.1f times per iteration, want 0", allocs)
	}

	evalOnly := func() {
		st.refreshMachine(0)
		st.refreshShard(shard)
		_ = st.evalIncremental()
	}
	if allocs := testing.AllocsPerRun(200, evalOnly); allocs != 0 {
		t.Fatalf("refresh+eval allocates %.1f times per iteration, want 0", allocs)
	}
}
