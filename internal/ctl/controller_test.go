package ctl

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/obs"
	"rexchange/internal/plan"
	"rexchange/internal/workload"
)

func TestPolicyShouldSolve(t *testing.T) {
	p := Policy{HighWater: 1.25, LowWater: 1.10}
	cases := []struct {
		name                string
		imb                 float64
		campaign, migrating bool
		want                bool
	}{
		{"below band idle", 1.05, false, false, false},
		{"above high triggers", 1.30, false, false, true},
		{"above high supersedes migration", 1.30, true, true, true},
		{"mid band no campaign", 1.15, false, false, false},
		{"mid band campaign continues", 1.15, true, false, true},
		{"mid band never supersedes", 1.15, true, true, false},
		{"at low water stops", 1.10, true, false, false},
	}
	for _, tc := range cases {
		got := p.ShouldSolve(tc.imb, tc.campaign, tc.migrating)
		if got != tc.want {
			t.Errorf("%s: ShouldSolve = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	bad := []Policy{
		{HighWater: 1.2, LowWater: 0.9},
		{HighWater: 1.1, LowWater: 1.2},
	}
	for _, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("policy %+v validated", p)
		}
	}
	if err := DefaultPolicy().validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyRejectsNaNWatermarks: a NaN in either watermark is refused
// with an error naming the field, whatever the other one holds.
func TestPolicyRejectsNaNWatermarks(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		p     Policy
		field string
	}{
		{Policy{HighWater: nan, LowWater: 1.1}, "HighWater"},
		{Policy{HighWater: nan, LowWater: nan}, "HighWater"},
		{Policy{HighWater: 1.25, LowWater: nan}, "LowWater"},
		{Policy{HighWater: math.Inf(1), LowWater: nan}, "LowWater"},
	}
	for _, tc := range cases {
		if err := tc.p.validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("policy %+v: error %v, want one naming %s", tc.p, err, tc.field)
		}
	}
	for _, p := range []Policy{DefaultPolicy(), {HighWater: 1, LowWater: 1}, {HighWater: math.Inf(1), LowWater: 1.1}, {HighWater: 100, LowWater: 99}} {
		if err := p.validate(); err != nil {
			t.Errorf("policy %+v: %v", p, err)
		}
	}
}

// TestBudgetValidate: a negative or non-finite SolveSeconds is refused with
// an error naming the field. Validation only: a NaN solve cost must never
// reach a clock.
func TestBudgetValidate(t *testing.T) {
	for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := Budget{Iterations: 10, SolveSeconds: v}
		if err := b.validate(); err == nil || !strings.Contains(err.Error(), "SolveSeconds") {
			t.Errorf("SolveSeconds %g: error %v, want one naming SolveSeconds", v, err)
		}
	}
	for _, v := range []float64{0, 1, 1e9} {
		if err := (Budget{Iterations: 10, SolveSeconds: v}).validate(); err != nil {
			t.Errorf("SolveSeconds %g: %v", v, err)
		}
	}
}

// scriptSource plays back a fixed sequence of load snapshots.
type scriptSource struct {
	rows [][]float64
	i    int
}

func (s *scriptSource) Next(t0, t1 float64) ([]float64, error) {
	row := s.rows[len(s.rows)-1]
	if s.i < len(s.rows) {
		row = s.rows[s.i]
	}
	s.i++
	return append([]float64(nil), row...), nil
}

// e2eConfig is the shared scenario used by the convergence, determinism,
// and failure-injection tests: a generated fleet under diurnal intensity
// and per-window popularity drift on the virtual clock.
func e2eConfig(t *testing.T, machines, shards int, seed int64) (Config, *cluster.Placement, *TraceDriftSource) {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.Machines = machines
	wcfg.Shards = shards
	wcfg.TargetFill = 0.82
	wcfg.Seed = seed
	inst, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: 120, BaseRate: 50, DiurnalAmp: 0.5, Period: 120,
		CostMu: 0, CostSigma: 0.5, Seed: seed + 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewTraceDriftSource(inst.Placement.Cluster(), tr, 0.03, seed+101)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Window = 10
	cfg.Policy = Policy{HighWater: 1.25, LowWater: 1.10}
	cfg.Budget = Budget{Iterations: 400, Restarts: 2, SolveSeconds: 1}
	cfg.Exec.Migration = MigrationConfig{Bandwidth: 250, Concurrency: 8}
	cfg.Seed = seed
	return cfg, inst.Placement, src
}

// convergedImbalance returns the lowest imbalance observed at or after the
// first solved round (the trajectory's converged level), or +Inf when no
// round solved. Later windows may drift back into the dead band — that is
// hysteresis working as designed — so convergence is judged on the
// trajectory, not only the final sample.
func convergedImbalance(hist []RoundStat) float64 {
	low := math.Inf(1)
	solved := false
	for _, st := range hist {
		solved = solved || st.Solved
		if solved && st.Imbalance < low {
			low = st.Imbalance
		}
	}
	return low
}

// TestControllerConvergesUnderDrift is the headline end-to-end scenario: a
// 200-machine fleet starts load-imbalanced, the controller detects the
// high-water crossing, re-solves under budget, migrates asynchronously, and
// the observed imbalance converges below the low-water mark. Under
// -tags debugasserts every executor commit re-validates placement
// invariants and the transient constraint.
func TestControllerConvergesUnderDrift(t *testing.T) {
	cfg, p, src := e2eConfig(t, 200, 2400, 5)
	clock := NewVirtualClock()
	c, err := New(cfg, clock, p, src)
	if err != nil {
		t.Fatal(err)
	}
	if imb := c.Report().Imbalance; imb < cfg.Policy.HighWater {
		t.Fatalf("scenario too tame: initial imbalance %.3f below high water", imb)
	}
	const rounds = 12
	if err := c.Run(rounds); err != nil {
		t.Fatal(err)
	}

	hist := c.History()
	if len(hist) != rounds {
		t.Fatalf("got %d round stats, want %d", len(hist), rounds)
	}
	solves := 0
	for _, st := range hist {
		if st.Err != "" {
			t.Fatalf("round %d recorded error: %s", st.Round, st.Err)
		}
		if st.Solved {
			solves++
		}
	}
	if solves == 0 {
		t.Fatal("controller never solved despite high imbalance")
	}
	if conv := convergedImbalance(hist); conv > cfg.Policy.LowWater {
		t.Fatalf("trajectory never reached low water %.2f (best post-solve %.4f, history: %+v)",
			cfg.Policy.LowWater, conv, hist)
	}
	final := c.Report()
	if final.Imbalance >= cfg.Policy.HighWater {
		t.Fatalf("final imbalance %.4f escaped back above high water (history: %+v)",
			final.Imbalance, hist)
	}
	ctr := c.ExecCounters()
	if ctr.Completed == 0 || !c.Status().Executor.Done {
		t.Fatalf("migration did not drain: %+v", ctr)
	}
	if ctr.PeakParallel > cfg.Exec.Migration.Concurrency {
		t.Fatalf("peak parallel %d exceeds bound %d", ctr.PeakParallel, cfg.Exec.Migration.Concurrency)
	}
	live := c.SnapshotPlacement()
	if err := live.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerTrajectoryDeterministic pins the bit-identical round
// trajectory across GOMAXPROCS: parallel restarts inside the solver must
// not leak scheduling nondeterminism into the control loop.
func TestControllerTrajectoryDeterministic(t *testing.T) {
	runAt := func(procs int) []RoundStat {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg, p, src := e2eConfig(t, 80, 960, 11)
		cfg.Budget = Budget{Iterations: 150, Restarts: 3, SolveSeconds: 1}
		c, err := New(cfg, NewVirtualClock(), p, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(6); err != nil {
			t.Fatal(err)
		}
		return c.History()
	}
	one := runAt(1)
	many := runAt(4)
	if !reflect.DeepEqual(one, many) {
		t.Fatalf("trajectory differs across GOMAXPROCS:\n 1: %+v\n 4: %+v", one, many)
	}
}

// TestControllerRetriesInjectedFailures injects deterministic copy failures
// and checks the rounds still complete: failed copies back off, retry, and
// the plan drains.
func TestControllerRetriesInjectedFailures(t *testing.T) {
	cfg, p, src := e2eConfig(t, 100, 1200, 3)
	cfg.Exec.MaxAttempts = 6
	cfg.Exec.BackoffBase = 0.05
	cfg.Exec.Failure = func(mv plan.Move, attempt int) bool {
		return attempt == 1 && mv.S%7 == 0 // every 7th shard fails its first copy
	}
	c, err := New(cfg, NewVirtualClock(), p, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(12); err != nil {
		t.Fatal(err)
	}
	for _, st := range c.History() {
		if st.Err != "" {
			t.Fatalf("round %d recorded error: %s", st.Round, st.Err)
		}
	}
	ctr := c.ExecCounters()
	if ctr.Failures == 0 {
		t.Fatal("failure injection never fired")
	}
	if !c.Status().Executor.Done {
		t.Fatalf("plan did not drain despite retries: %+v", ctr)
	}
	if conv := convergedImbalance(c.History()); conv > cfg.Policy.LowWater {
		t.Fatalf("trajectory never reached low water despite retries (best %.4f)", conv)
	}
}

// slowCopyFleet scripts two successive load spikes on an 8-machine fleet
// whose copies take far longer than a window, so the second spike arrives
// while the first plan is still migrating.
func slowCopyFleet(t *testing.T) (Config, *cluster.Placement, LoadSource) {
	t.Helper()
	nm, ns := 8, 16
	caps := make([]float64, nm)
	for i := range caps {
		caps[i] = 10
	}
	statics := make([]float64, ns)
	for i := range statics {
		statics[i] = 2
	}
	c := mkCluster(caps, statics)
	assign := make([]cluster.MachineID, ns)
	for s := range assign {
		assign[s] = cluster.MachineID(s / 2)
	}
	p := mustPlacement(t, c, assign)

	spike := func(hot ...int) []float64 {
		row := make([]float64, ns)
		for i := range row {
			row[i] = 0.5
		}
		for _, s := range hot {
			row[s] = 8
		}
		return row
	}
	src := &scriptSource{rows: [][]float64{
		spike(0, 1), // round 0: machine 0 melts → solve
		spike(2, 3), // round 1: machine 1 melts → supersede
		spike(2, 3),
	}}

	cfg := DefaultConfig()
	cfg.Window = 10
	cfg.Policy = Policy{HighWater: 1.5, LowWater: 1.2}
	cfg.Budget = Budget{Iterations: 200, Restarts: 1}
	// one slow copy at a time: 2 disk units / 0.04 = 50s per move,
	// far longer than the 10s window, so round 1 arrives mid-migration
	cfg.Exec.Migration = MigrationConfig{Bandwidth: 0.04, Concurrency: 1}
	cfg.Seed = 9
	return cfg, p, src
}

// TestControllerSupersedesPlan scripts two successive load spikes with slow
// migration: the second spike must supersede the still-migrating first
// plan (aborting its in-flight copy) rather than queue behind it.
func TestControllerSupersedesPlan(t *testing.T) {
	cfg, p, src := slowCopyFleet(t)
	ctl, err := New(cfg, NewVirtualClock(), p, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Run(3); err != nil {
		t.Fatal(err)
	}
	hist := ctl.History()
	if !hist[0].Solved || !hist[1].Solved {
		t.Fatalf("expected solves in rounds 0 and 1: %+v", hist)
	}
	ctr := ctl.ExecCounters()
	if ctr.Aborted == 0 {
		t.Fatalf("second spike did not abort the in-flight move: %+v", ctr)
	}
	if err := ctl.SnapshotPlacement().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// sleepProbe is a VirtualClock that calls probe before every Sleep. The
// controller never sleeps holding its mutex, so probe may call Status.
type sleepProbe struct {
	*VirtualClock
	probe func()
}

func (c sleepProbe) Sleep(d float64) {
	c.probe()
	c.VirtualClock.Sleep(d)
}

// TestControllerStateFollowsExecutor checks that the state /status and
// rex_ctl_state report is derived, not stored: "solving" (1) exactly while
// a round's solve runs, "migrating" exactly while a plan has unfinished
// moves, "idle" otherwise, and idle once Run has drained.
func TestControllerStateFollowsExecutor(t *testing.T) {
	cfg, p, src := slowCopyFleet(t)
	cfg.Registry = obs.NewRegistry()
	var c *Controller
	// solvingIn[r] records that the state read "solving" while round r ran;
	// Status().Round has already moved past r when its solve sleeps.
	solvingIn := map[int]bool{}
	clock := sleepProbe{VirtualClock: NewVirtualClock(), probe: func() {
		status := c.Status()
		solving := status.State == StateSolving.String()
		if gauge := c.m.state.Value(); solving != (gauge == float64(StateSolving)) {
			t.Errorf("round %d: state %q but rex_ctl_state = %g", status.Round-1, status.State, gauge)
		}
		if solving {
			solvingIn[status.Round-1] = true
		}
	}}
	migrating, solved := 0, 0
	cfg.OnRound = func(st RoundStat) {
		if solvingIn[st.Round] != st.Solved {
			t.Errorf("round %d: solved=%v but state read solving=%v during the round",
				st.Round, st.Solved, solvingIn[st.Round])
		}
		if st.Solved {
			solved++
		}
		status := c.Status()
		want := StateIdle
		if !status.Executor.Done {
			want = StateMigrating
			migrating++
		}
		if status.State != want.String() {
			t.Errorf("round %d: state %q with executor done=%v, want %q",
				st.Round, status.State, status.Executor.Done, want)
		}
		if got := c.m.state.Value(); got != float64(want) {
			t.Errorf("round %d: rex_ctl_state = %g, want %d", st.Round, got, want)
		}
	}
	var err error
	if c, err = New(cfg, clock, p, src); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(3); err != nil {
		t.Fatal(err)
	}
	if migrating == 0 || solved == 0 {
		t.Fatalf("%d rounds ended mid-migration and %d solved; the scenario needs both", migrating, solved)
	}
	if st := c.Status(); st.State != "idle" || !st.Executor.Done {
		t.Fatalf("after Run: state %q, executor done=%v; want idle and done", st.State, st.Executor.Done)
	}
	if got := c.m.state.Value(); got != 0 {
		t.Fatalf("after Run: rex_ctl_state = %g, want 0", got)
	}
}

// TestRoundsCloseAtWindowAfterPlanFailure makes every copy fail on its
// only attempt, so each installed plan fails inside its window. Each round
// must still snapshot at its window boundary, not at the failure.
func TestRoundsCloseAtWindowAfterPlanFailure(t *testing.T) {
	cfg, p, src := e2eConfig(t, 60, 700, 3)
	cfg.Exec.MaxAttempts = 1
	cfg.Exec.Failure = func(plan.Move, int) bool { return true }
	var at []float64
	cfg.OnRound = func(st RoundStat) { at = append(at, st.At) }
	c, err := New(cfg, NewVirtualClock(), p, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(6); err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30, 40, 50, 60}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("rounds closed at %v, want %v", at, want)
	}
	failed := 0
	for _, st := range c.History() {
		if st.Err != "" {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no plan failure was recorded; the scenario checks nothing")
	}
}

// TestNewRejectsBadWindow pins that a window which is not a positive finite
// number of seconds is refused by name at construction, not later as a bad
// snapshot (NaN) or a round that never closes (+Inf).
func TestNewRejectsBadWindow(t *testing.T) {
	c := mkCluster([]float64{10, 10}, []float64{2, 2})
	p := mustPlacement(t, c, []cluster.MachineID{0, 1})
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DefaultConfig()
		cfg.Window = w
		_, err := New(cfg, NewVirtualClock(), p, &scriptSource{rows: [][]float64{{1, 1}}})
		if err == nil || !strings.Contains(err.Error(), "Window must be positive and finite") {
			t.Errorf("Window %g: err = %v, want a Window error", w, err)
		}
	}
}

func TestControllerRejectsBadSnapshots(t *testing.T) {
	c := mkCluster([]float64{10, 10}, []float64{2, 2})
	p := mustPlacement(t, c, []cluster.MachineID{0, 1})
	cases := [][]float64{
		{1},              // wrong length
		{1, -3},          // negative
		{1, math.NaN()},  // NaN
		{1, math.Inf(1)}, // Inf
	}
	for i, row := range cases {
		cfg := DefaultConfig()
		ctl, err := New(cfg, NewVirtualClock(), p, &scriptSource{rows: [][]float64{row}})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.Run(1); err == nil {
			t.Errorf("case %d: bad snapshot %v accepted", i, row)
		}
	}
}

func TestTraceDriftSourceDeterministicAndWrapping(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.Machines = 10
	wcfg.Shards = 60
	inst, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: 30, BaseRate: 40, DiurnalAmp: 0.7, Period: 30, CostSigma: 0.3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *TraceDriftSource {
		s, err := NewTraceDriftSource(inst.Cluster, tr, 0.1, 42)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	for w := 0; w < 8; w++ { // windows 0..8×12s run well past the 30s trace
		t0, t1 := float64(w)*12, float64(w+1)*12
		la, err := a.Next(t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := b.Next(t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(la, lb) {
			t.Fatalf("window %d: identical sources diverged", w)
		}
		for i, l := range la {
			if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("window %d shard %d: bad load %g", w, i, l)
			}
		}
	}
	if _, err := mk().Next(5, 3); err == nil {
		t.Fatal("inverted window accepted")
	}
	// A negative sigma must not silently run a frozen fleet.
	if _, err := NewTraceDriftSource(inst.Cluster, tr, -1, 42); err == nil || !strings.Contains(err.Error(), "negative drift") {
		t.Fatalf("sigma -1: err = %v, want a negative-drift error", err)
	}
	// Nor may a NaN or infinite one: NaN fails every comparison, so it
	// used to run the fleet frozen, as sigma 0 does.
	for _, sigma := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewTraceDriftSource(inst.Cluster, tr, sigma, 42); err == nil || !strings.Contains(err.Error(), "drift sigma must be finite") {
			t.Fatalf("sigma %g: err = %v, want a non-finite drift error", sigma, err)
		}
	}
}

// TestTraceDriftSourceLongWindow reads a flat trace through windows of up
// to nine and a half passes: every window, wrapped or not, sees the trace
// mean, so its intensity is 1.
func TestTraceDriftSourceLongWindow(t *testing.T) {
	tr := &workload.Trace{Duration: 10}
	for i := 0; i < 10; i++ {
		tr.Queries = append(tr.Queries, workload.Query{At: float64(i) + 0.5, Cost: 1})
	}
	s, err := NewTraceDriftSource(nil, tr, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, t0 := range []float64{0, 3, 17} {
		for _, w := range []float64{5, 10, 20, 25, 30, 35, 45, 50, 95} {
			if got := s.intensity(t0, t0+w); math.Abs(got-1) > 1e-9 {
				t.Errorf("window [%g,%g): intensity %.6f, want 1", t0, t0+w, got)
			}
		}
	}
}

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock()
	if now := c.Now(); now != 0 {
		t.Fatalf("fresh clock at %g", now)
	}
	c.Sleep(2.5)
	c.Sleep(-1) // negative sleeps are no-ops
	c.Sleep(0)
	if now := c.Now(); now != 2.5 {
		t.Fatalf("clock at %g, want 2.5", now)
	}
}

func ExamplePolicy() {
	p := DefaultPolicy()
	fmt.Println(p.ShouldSolve(1.30, false, false))
	fmt.Println(p.ShouldSolve(1.05, false, false))
	// Output:
	// true
	// false
}

// TestControllerPartitionedSolve runs the control loop end-to-end with the
// partitioned parallel solver (Budget.Partitions > 1): the fleet's three
// hardware tiers become resource-equivalence partitions, each solve round
// splits the iteration budget across them, and the trajectory must both
// converge and stay bit-identical across GOMAXPROCS — the partitioned
// path's concurrency must be as unobservable as the restart portfolio's.
func TestControllerPartitionedSolve(t *testing.T) {
	runAt := func(procs int) (float64, []RoundStat) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg, p, src := e2eConfig(t, 120, 1440, 17)
		cfg.Budget = Budget{Iterations: 400, Partitions: 4, ExchangeRounds: 1, SolveSeconds: 1}
		c, err := New(cfg, NewVirtualClock(), p, src)
		if err != nil {
			t.Fatal(err)
		}
		initial := c.Report().Imbalance
		if err := c.Run(10); err != nil {
			t.Fatal(err)
		}
		live := c.SnapshotPlacement()
		if err := live.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return initial, c.History()
	}

	initial, hist := runAt(1)
	solves := 0
	for _, st := range hist {
		if st.Err != "" {
			t.Fatalf("round %d recorded error: %s", st.Round, st.Err)
		}
		if st.Solved {
			solves++
		}
	}
	if solves == 0 {
		t.Fatal("partitioned controller never solved")
	}
	if conv := convergedImbalance(hist); conv >= initial {
		t.Fatalf("partitioned solves never improved imbalance: initial %.4f, best post-solve %.4f",
			initial, conv)
	}

	_, histMany := runAt(4)
	if !reflect.DeepEqual(hist, histMany) {
		t.Fatalf("partitioned trajectory differs across GOMAXPROCS:\n 1: %+v\n 4: %+v", hist, histMany)
	}
}
