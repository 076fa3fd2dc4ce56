package ctl

import (
	"strings"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/plan"
	"rexchange/internal/vec"
)

// execGolden is one ExecutePlan outcome. The literals in this file pin the
// numbers `rebalance -simulate` and the F-figures report for these plans;
// event times are sums of size/bandwidth terms with no clock round trip, so
// every comparison is ==, not a tolerance.
type execGolden struct {
	makespan, bytes float64
	steps, peak     int
}

// checkExecutePlan runs ExecutePlan, compares it with want, and verifies
// that the starting placement was left untouched.
func checkExecutePlan(t *testing.T, from *cluster.Placement, pl *plan.Plan, cfg MigrationConfig, want execGolden) {
	t.Helper()
	before := from.Assignment()
	ctr, makespan, err := ExecutePlan(from, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := execGolden{makespan, ctr.BytesMoved, ctr.Completed, ctr.PeakParallel}
	if got != want {
		t.Errorf("ExecutePlan = %+v, want %+v", got, want)
	}
	if ctr.Dispatched != ctr.Completed || ctr.Failures != 0 || ctr.InFlight != 0 || ctr.Pending != 0 {
		t.Errorf("counters not drained cleanly: %+v", ctr)
	}
	assertUntouched(t, from, before)
}

func assertUntouched(t *testing.T, from *cluster.Placement, before []cluster.MachineID) {
	t.Helper()
	for s, m := range from.Assignment() {
		if m != before[s] {
			t.Fatalf("ExecutePlan moved shard %d of its input from %d to %d", s, before[s], m)
		}
	}
}

// diskCluster builds machines with the given capacity vectors and shards
// with (1, disk, 1) static demand and unit load.
func diskCluster(caps []vec.Vec, disks []float64) *cluster.Cluster {
	c := &cluster.Cluster{}
	for i, cp := range caps {
		c.Machines = append(c.Machines, cluster.Machine{ID: cluster.MachineID(i), Capacity: cp, Speed: 1})
	}
	for i, d := range disks {
		c.Shards = append(c.Shards, cluster.Shard{ID: cluster.ShardID(i), Static: vec.New(1, d, 1), Load: 1})
	}
	return c
}

func TestExecutePlanSerial(t *testing.T) {
	c := diskCluster([]vec.Vec{vec.Uniform(100), vec.Uniform(100)}, []float64{50, 30})
	from := mustPlacement(t, c, []cluster.MachineID{0, 0})
	pl := &plan.Plan{Moves: []plan.Move{
		{S: 0, From: 0, To: 1},
		{S: 1, From: 0, To: 1},
	}}
	// (50+30)/10, one copy at a time
	checkExecutePlan(t, from, pl, MigrationConfig{Bandwidth: 10, Concurrency: 1},
		execGolden{makespan: 8, bytes: 80, steps: 2, peak: 1})
}

func TestExecutePlanConcurrencySpeedsUp(t *testing.T) {
	c := diskCluster([]vec.Vec{vec.Uniform(1000), vec.Uniform(1000)}, []float64{40, 40, 40, 40})
	from := mustPlacement(t, c, []cluster.MachineID{0, 0, 0, 0})
	pl := &plan.Plan{}
	for s := 0; s < 4; s++ {
		pl.Moves = append(pl.Moves, plan.Move{S: cluster.ShardID(s), From: 0, To: 1})
	}
	checkExecutePlan(t, from, pl, MigrationConfig{Bandwidth: 10, Concurrency: 1},
		execGolden{makespan: 16, bytes: 160, steps: 4, peak: 1})
	checkExecutePlan(t, from, pl, MigrationConfig{Bandwidth: 10, Concurrency: 4},
		execGolden{makespan: 4, bytes: 160, steps: 4, peak: 4})
}

// TestExecutePlanTransientBlocks: s0 vacates machine 1 (→2), then s1 moves
// 0→1. While s0 is still copying it occupies machine 1 (disk cap 60), so
// s1's incoming copy (40+40 > 60) must wait — concurrency 2 degrades to
// serial because of the transient reservation.
func TestExecutePlanTransientBlocks(t *testing.T) {
	c := diskCluster([]vec.Vec{vec.Uniform(100), vec.New(100, 60, 100), vec.Uniform(100)}, []float64{40, 40})
	from := mustPlacement(t, c, []cluster.MachineID{1, 0})
	pl := &plan.Plan{Moves: []plan.Move{
		{S: 0, From: 1, To: 2},
		{S: 1, From: 0, To: 1},
	}}
	checkExecutePlan(t, from, pl, MigrationConfig{Bandwidth: 10, Concurrency: 2},
		execGolden{makespan: 8, bytes: 80, steps: 2, peak: 1})
}

// TestExecutePlanMultiHop covers staged plans where one shard moves twice:
// the second hop must wait for the first to land. The hops of shard 0
// serialize (4s + 4s); shard 1 (2s) overlaps hop 2, once hop 2 is no longer
// head-of-line.
func TestExecutePlanMultiHop(t *testing.T) {
	c := diskCluster([]vec.Vec{vec.Uniform(100), vec.Uniform(100), vec.Uniform(100)}, []float64{40, 20})
	from := mustPlacement(t, c, []cluster.MachineID{0, 0})
	pl := &plan.Plan{Moves: []plan.Move{
		{S: 0, From: 0, To: 1},
		{S: 0, From: 1, To: 2},
		{S: 1, From: 0, To: 1},
	}}
	checkExecutePlan(t, from, pl, MigrationConfig{Bandwidth: 10, Concurrency: 4},
		execGolden{makespan: 8, bytes: 100, steps: 3, peak: 2})
}

func TestExecutePlanDetectsBadPlan(t *testing.T) {
	c := diskCluster([]vec.Vec{vec.Uniform(100), vec.New(100, 10, 100)}, []float64{40})
	from := mustPlacement(t, c, []cluster.MachineID{0})
	cfg := MigrationConfig{Bandwidth: 100, Concurrency: 1}
	for _, tc := range []struct {
		name, want string
		mv         plan.Move
	}{
		{"never fits", "never fits", plan.Move{S: 0, From: 0, To: 1}},
		{"wrong source", "expects shard 0 on machine 1", plan.Move{S: 0, From: 1, To: 0}},
	} {
		_, _, err := ExecutePlan(from, &plan.Plan{Moves: []plan.Move{tc.mv}}, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	assertUntouched(t, from, []cluster.MachineID{0})
}

func TestExecutePlanValidation(t *testing.T) {
	c := mkCluster([]float64{10}, []float64{1})
	from := mustPlacement(t, c, []cluster.MachineID{0})
	if _, _, err := ExecutePlan(from, &plan.Plan{}, MigrationConfig{Bandwidth: 0, Concurrency: 1}); err == nil {
		t.Error("expected bandwidth error")
	}
	if _, _, err := ExecutePlan(from, &plan.Plan{}, MigrationConfig{Bandwidth: 1, Concurrency: 0}); err == nil {
		t.Error("expected concurrency error")
	}
	checkExecutePlan(t, from, &plan.Plan{}, MigrationConfig{Bandwidth: 100, Concurrency: 1}, execGolden{})
}

// TestExecutePlanHonoursAntiAffinity: static capacity alone does not admit
// a copy — a replica never lands beside a sibling of its anti-affinity
// group. A hop that could only do so is refused, and one whose sibling is
// on its way out waits for it to land.
func TestExecutePlanHonoursAntiAffinity(t *testing.T) {
	c := diskCluster([]vec.Vec{vec.Uniform(100), vec.Uniform(100), vec.Uniform(100)}, []float64{40, 40})
	c.Shards[0].Group, c.Shards[1].Group = 7, 7
	from := mustPlacement(t, c, []cluster.MachineID{0, 1})
	cfg := MigrationConfig{Bandwidth: 10, Concurrency: 2}

	beside := &plan.Plan{Moves: []plan.Move{{S: 0, From: 0, To: 1}}}
	_, _, err := ExecutePlan(from, beside, cfg)
	if err == nil || !strings.Contains(err.Error(), "move 0 (shard 0 → machine 1) never fits") {
		t.Fatalf("hop beside a sibling: error %v, want the never-fits refusal naming the move", err)
	}
	assertUntouched(t, from, []cluster.MachineID{0, 1})

	// Serially valid — the sibling leaves machine 1 first — but with two
	// streams the second copy may not start while the sibling still lives
	// there: 4s + 4s, never two in flight.
	chain := &plan.Plan{Moves: []plan.Move{
		{S: 1, From: 1, To: 2},
		{S: 0, From: 0, To: 1},
	}}
	checkExecutePlan(t, from, chain, cfg, execGolden{makespan: 8, bytes: 80, steps: 2, peak: 1})
}
