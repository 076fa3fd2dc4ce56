package ctl

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/obs"
	"rexchange/internal/plan"
	"rexchange/internal/vec"
)

// mkCluster builds a uniform-resource cluster from per-machine capacities
// and per-shard static sizes (unit loads, speed 1).
func mkCluster(caps []float64, statics []float64) *cluster.Cluster {
	c := &cluster.Cluster{}
	for i, cp := range caps {
		c.Machines = append(c.Machines, cluster.Machine{
			ID: cluster.MachineID(i), Capacity: vec.Uniform(cp), Speed: 1,
		})
	}
	for i, st := range statics {
		c.Shards = append(c.Shards, cluster.Shard{
			ID: cluster.ShardID(i), Static: vec.Uniform(st), Load: 1,
		})
	}
	return c
}

func mustPlacement(t *testing.T, c *cluster.Cluster, assign []cluster.MachineID) *cluster.Placement {
	t.Helper()
	p, err := cluster.FromAssignment(c, assign)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newExec(t *testing.T, c *cluster.Cluster, cfg ExecConfig) *Executor {
	t.Helper()
	ex, err := NewExecutor(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// checkTransient verifies, from the executor's externally visible state,
// that resident usage plus in-flight destination reservations fits every
// machine — the paper's transient constraint.
func checkTransient(t *testing.T, ex *Executor, live *cluster.Placement) {
	t.Helper()
	c := live.Cluster()
	extra := make([]vec.Vec, c.NumMachines())
	for _, mv := range ex.MoveStates() {
		if mv.Status == MoveInFlight.String() {
			extra[mv.To] = extra[mv.To].Add(c.Shards[mv.Shard].Static)
		}
	}
	for m := 0; m < c.NumMachines(); m++ {
		total := live.Used(cluster.MachineID(m)).Add(extra[m])
		if !total.LEQ(c.Machines[m].Capacity.Add(vec.Uniform(1e-9))) {
			t.Fatalf("machine %d transient usage %v exceeds capacity %v",
				m, total, c.Machines[m].Capacity)
		}
	}
}

// drive runs the executor to completion on the virtual clock, checking the
// transient constraint after every event.
func drive(t *testing.T, ex *Executor, live *cluster.Placement, clock *VirtualClock) {
	t.Helper()
	if err := ex.Tick(live, clock.Now()); err != nil {
		t.Fatal(err)
	}
	sleepTo := SleepTo(clock)
	_, err := ex.Drive(live, clock.Now(), math.Inf(1), func(next float64) float64 {
		checkTransient(t, ex, live)
		return sleepTo(next)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkTransient(t, ex, live)
	if !ex.Done() {
		t.Fatalf("executor stalled: %+v", ex.Counters())
	}
}

func execCfg(conc int) ExecConfig {
	return ExecConfig{Migration: MigrationConfig{Bandwidth: 1, Concurrency: conc}}
}

func TestExecutorRunsPlanToCompletion(t *testing.T) {
	c := mkCluster([]float64{10, 10, 10}, []float64{2, 3, 4})
	live := mustPlacement(t, c, []cluster.MachineID{0, 0, 0})
	target := mustPlacement(t, c, []cluster.MachineID{0, 1, 2})
	pl, err := plan.DefaultPlanner().Build(live, target)
	if err != nil {
		t.Fatal(err)
	}
	ex := newExec(t, c, execCfg(1))
	ex.SetPlan(pl)
	clock := NewVirtualClock()
	drive(t, ex, live, clock)

	for s := 0; s < c.NumShards(); s++ {
		if live.Home(cluster.ShardID(s)) != target.Home(cluster.ShardID(s)) {
			t.Fatalf("shard %d on %d, want %d", s, live.Home(cluster.ShardID(s)), target.Home(cluster.ShardID(s)))
		}
	}
	ctr := ex.Counters()
	if ctr.Completed != pl.NumMoves() || ctr.Failures != 0 {
		t.Fatalf("counters = %+v, want %d completions", ctr, pl.NumMoves())
	}
	// concurrency 1 at bandwidth 1: makespan is the summed move volume
	want := pl.BytesMoved(c)
	if diff := clock.Now() - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("makespan %g, want %g", clock.Now(), want)
	}
	if err := live.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExecutorBoundsInFlight(t *testing.T) {
	// Six independent moves; concurrency 2 must cap the overlap.
	c := mkCluster([]float64{30, 30}, []float64{2, 2, 2, 2, 2, 2})
	live := mustPlacement(t, c, []cluster.MachineID{0, 0, 0, 0, 0, 0})
	target := mustPlacement(t, c, []cluster.MachineID{1, 1, 1, 1, 1, 1})
	pl, err := plan.DefaultPlanner().Build(live, target)
	if err != nil {
		t.Fatal(err)
	}
	ex := newExec(t, c, execCfg(2))
	ex.SetPlan(pl)
	drive(t, ex, live, NewVirtualClock())
	ctr := ex.Counters()
	if ctr.PeakParallel != 2 {
		t.Fatalf("peak parallel = %d, want 2", ctr.PeakParallel)
	}
}

// TestExecutorAdmissionBlocks drives the canonical swap-with-staging plan:
// admission must delay dependent moves until space frees, and the final
// placement must realize the target.
func TestExecutorAdmissionBlocks(t *testing.T) {
	c := mkCluster([]float64{10, 10, 8}, []float64{7, 7})
	live := mustPlacement(t, c, []cluster.MachineID{0, 1})
	target := mustPlacement(t, c, []cluster.MachineID{1, 0})
	pl, err := plan.DefaultPlanner().Build(live, target)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Staged == 0 {
		t.Fatalf("expected a staged plan, got %+v", pl)
	}
	ex := newExec(t, c, execCfg(4))
	ex.SetPlan(pl)
	drive(t, ex, live, NewVirtualClock())
	if live.Home(0) != 1 || live.Home(1) != 0 {
		t.Fatalf("swap not realized: homes %d,%d", live.Home(0), live.Home(1))
	}
}

func TestExecutorRetryWithBackoff(t *testing.T) {
	c := mkCluster([]float64{10, 10}, []float64{4})
	live := mustPlacement(t, c, []cluster.MachineID{0})
	target := mustPlacement(t, c, []cluster.MachineID{1})
	pl, err := plan.DefaultPlanner().Build(live, target)
	if err != nil {
		t.Fatal(err)
	}
	cfg := execCfg(1)
	cfg.BackoffBase = 2
	cfg.BackoffMax = 3
	fails := 0
	cfg.Failure = func(mv plan.Move, attempt int) bool {
		if attempt <= 3 {
			fails++
			return true
		}
		return false
	}
	ex := newExec(t, c, cfg)
	ex.SetPlan(pl)
	clock := NewVirtualClock()
	drive(t, ex, live, clock)
	if live.Home(0) != 1 {
		t.Fatalf("move not committed after retries")
	}
	ctr := ex.Counters()
	if ctr.Failures != 3 || fails != 3 || ctr.Completed != 1 {
		t.Fatalf("counters = %+v (fails=%d), want 3 failures 1 completion", ctr, fails)
	}
	// 4 copies of duration 4 plus backoffs 2, 3 (capped), 3 (capped).
	want := 4*4.0 + 2 + 3 + 3
	if diff := clock.Now() - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("makespan %g, want %g", clock.Now(), want)
	}
}

func TestExecutorAbandonsAfterMaxAttempts(t *testing.T) {
	c := mkCluster([]float64{10, 10}, []float64{4, 2})
	live := mustPlacement(t, c, []cluster.MachineID{0, 0})
	target := mustPlacement(t, c, []cluster.MachineID{1, 1})
	pl, err := plan.DefaultPlanner().Build(live, target)
	if err != nil {
		t.Fatal(err)
	}
	cfg := execCfg(1)
	cfg.MaxAttempts = 2
	cfg.BackoffBase = 0.1
	cfg.Failure = func(plan.Move, int) bool { return true }
	ex := newExec(t, c, cfg)
	ex.SetPlan(pl)
	clock := NewVirtualClock()

	if err := ex.Tick(live, clock.Now()); err != nil {
		t.Fatal(err)
	}
	_, tickErr := ex.Drive(live, clock.Now(), math.Inf(1), SleepTo(clock))
	if tickErr == nil || !strings.Contains(tickErr.Error(), "abandoning plan") {
		t.Fatalf("expected abandonment error, got %v", tickErr)
	}
	if !ex.Done() {
		t.Fatal("executor should be quiescent after abandoning the plan")
	}
	// the shard never moved and nothing stays reserved
	if live.Home(0) != 0 || live.Home(1) != 0 {
		t.Fatalf("placement mutated by failed plan: homes %d,%d", live.Home(0), live.Home(1))
	}
	checkTransient(t, ex, live)
	if err := live.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExecutorSupersededPlanAborts(t *testing.T) {
	c := mkCluster([]float64{10, 10, 10}, []float64{4, 4})
	live := mustPlacement(t, c, []cluster.MachineID{0, 0})
	target := mustPlacement(t, c, []cluster.MachineID{1, 1})
	pl, err := plan.DefaultPlanner().Build(live, target)
	if err != nil {
		t.Fatal(err)
	}
	ex := newExec(t, c, execCfg(1))
	ex.SetPlan(pl)
	clock := NewVirtualClock()
	if err := ex.Tick(live, clock.Now()); err != nil {
		t.Fatal(err)
	}
	if ex.Counters().InFlight != 1 {
		t.Fatalf("expected one in-flight move, got %+v", ex.Counters())
	}

	// Supersede mid-flight: the in-flight copy is aborted, the pending one
	// cancelled, and the shard stays on its source.
	ex.SetPlan(nil)
	ctr := ex.Counters()
	if ctr.Aborted != 1 || ctr.Cancelled != 1 || !ex.Done() {
		t.Fatalf("counters after supersede = %+v", ctr)
	}
	if live.Home(0) != 0 {
		t.Fatalf("aborted shard moved to %d", live.Home(0))
	}

	// A fresh plan over the same shards must run to completion: the old
	// reservations are gone.
	pl2, err := plan.DefaultPlanner().Build(live, target)
	if err != nil {
		t.Fatal(err)
	}
	ex.SetPlan(pl2)
	drive(t, ex, live, clock)
	if live.Home(0) != 1 || live.Home(1) != 1 {
		t.Fatalf("replacement plan not realized: homes %d,%d", live.Home(0), live.Home(1))
	}
}

func TestExecutorZeroPlanIsDone(t *testing.T) {
	c := mkCluster([]float64{10}, []float64{1})
	live := mustPlacement(t, c, []cluster.MachineID{0})
	ex := newExec(t, c, execCfg(1))
	if !ex.Done() {
		t.Fatal("fresh executor should be done")
	}
	ex.SetPlan(&plan.Plan{})
	if !ex.Done() {
		t.Fatal("empty plan should be done")
	}
	if err := ex.Tick(live, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.NextEvent(0); ok {
		t.Fatal("no events expected")
	}
}

// obsLog records MoveObserver callbacks for inspection.
type obsLog struct {
	events []string
	open   map[cluster.ShardID]int // shards with a started-but-unfinished copy
}

func newObsLog() *obsLog { return &obsLog{open: map[cluster.ShardID]int{}} }

func (o *obsLog) MoveStarted(mv plan.Move, ref MoveRef, at, eta float64) {
	if eta <= at {
		panic("eta not after start")
	}
	o.open[mv.S]++
	o.events = append(o.events, fmt.Sprintf("start s%d %g", mv.S, at))
}

func (o *obsLog) MoveFinished(mv plan.Move, ref MoveRef, at float64, committed bool) {
	if o.open[mv.S] <= 0 {
		panic("finish without matching start")
	}
	o.open[mv.S]--
	o.events = append(o.events, fmt.Sprintf("finish s%d %g %v", mv.S, at, committed))
}

// TestExecutorObserverLifecycle: every dispatch pairs with exactly one
// finish; failed attempts and aborted copies report committed=false,
// landed copies committed=true.
func TestExecutorObserverLifecycle(t *testing.T) {
	c := mkCluster([]float64{10, 10}, []float64{4})
	live := mustPlacement(t, c, []cluster.MachineID{0})
	target := mustPlacement(t, c, []cluster.MachineID{1})
	pl, err := plan.DefaultPlanner().Build(live, target)
	if err != nil {
		t.Fatal(err)
	}
	log := newObsLog()
	cfg := execCfg(1)
	cfg.BackoffBase = 1
	cfg.Observer = log
	cfg.Failure = func(mv plan.Move, attempt int) bool { return attempt == 1 }
	ex := newExec(t, c, cfg)
	ex.SetPlan(pl)
	clock := NewVirtualClock()
	drive(t, ex, live, clock)

	// copy 4s fails at t=4, retries at t=5, commits at t=9
	want := []string{"start s0 0", "finish s0 4 false", "start s0 5", "finish s0 9 true"}
	if len(log.events) != len(want) {
		t.Fatalf("events = %v, want %v", log.events, want)
	}
	for i := range want {
		if log.events[i] != want[i] {
			t.Fatalf("event[%d] = %q, want %q", i, log.events[i], want[i])
		}
	}

	// Supersession aborts an in-flight copy with committed=false.
	live2 := mustPlacement(t, c, []cluster.MachineID{0})
	target2 := mustPlacement(t, c, []cluster.MachineID{1})
	pl2, err := plan.DefaultPlanner().Build(live2, target2)
	if err != nil {
		t.Fatal(err)
	}
	log2 := newObsLog()
	cfg2 := execCfg(1)
	cfg2.Observer = log2
	ex2 := newExec(t, c, cfg2)
	ex2.SetPlan(pl2)
	if err := ex2.Tick(live2, 0); err != nil {
		t.Fatal(err)
	}
	ex2.SetPlan(nil) // abort mid-flight
	want2 := []string{"start s0 0", "finish s0 0 false"}
	if len(log2.events) != 2 || log2.events[0] != want2[0] || log2.events[1] != want2[1] {
		t.Fatalf("abort events = %v, want %v", log2.events, want2)
	}
	for s, n := range log2.open {
		if n != 0 {
			t.Fatalf("shard %d left with %d unmatched starts", s, n)
		}
	}
}

// TestExecutorRetriedMoveTiesInPlanOrder: move 0's first copy fails, and
// its redispatch lands at the same instant as move 1, which has been in
// flight since before it. Completion ties resolve in plan order, not in
// dispatch order, in the observer callbacks and in the journal alike; and
// after every Tick the in-flight and pending counts match a recount of
// MoveStates.
func TestExecutorRetriedMoveTiesInPlanOrder(t *testing.T) {
	c := mkCluster([]float64{10, 10, 10}, []float64{1, 3})
	live := mustPlacement(t, c, []cluster.MachineID{0, 0})
	pl := &plan.Plan{Moves: []plan.Move{
		{S: 0, From: 0, To: 1},
		{S: 1, From: 0, To: 2},
	}}
	log := newObsLog()
	cfg := ExecConfig{Migration: MigrationConfig{Bandwidth: 1, Concurrency: 2}, BackoffBase: 1, Observer: log}
	cfg.Failure = func(mv plan.Move, attempt int) bool { return mv.S == 0 && attempt == 1 }
	ex, _, buf := obsExec(t, c, cfg)
	ex.SetPlan(pl)

	// s0's 1s copy fails at t=1 and waits out a 1s backoff; its retry
	// starts at t=2 and lands at t=3, with s1's 3s copy.
	var ticks []float64
	for now, ok := 0.0, true; ok; now, ok = ex.NextEvent(now) {
		if err := ex.Tick(live, now); err != nil {
			t.Fatal(err)
		}
		ticks = append(ticks, now)
		inFlight, pending := 0, 0
		for _, mv := range ex.MoveStates() {
			switch mv.Status {
			case MoveInFlight.String():
				inFlight++
			case MovePending.String(), MoveRetrying.String():
				pending++
			}
		}
		if ctr := ex.Counters(); ctr.InFlight != inFlight || ctr.Pending != pending {
			t.Fatalf("t=%g: Counters in flight %d, pending %d; MoveStates recount %d, %d",
				now, ctr.InFlight, ctr.Pending, inFlight, pending)
		}
	}
	if fmt.Sprint(ticks) != "[0 1 2 3]" || !ex.Done() {
		t.Fatalf("ticked at %v, done %v; want [0 1 2 3] and done", ticks, ex.Done())
	}

	want := []string{"start s0 0", "start s1 0", "finish s0 1 false", "start s0 2", "finish s0 3 true", "finish s1 3 true"}
	if fmt.Sprint(log.events) != fmt.Sprint(want) {
		t.Fatalf("observer events = %q, want %q", log.events, want)
	}
	evs, err := obs.ReadJournal(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var ends []string
	for _, ev := range evs {
		if ev.Span == obs.SpanMove && ev.Phase == obs.PhaseEnd {
			ends = append(ends, fmt.Sprintf("seq%d %g %s", ev.Move.Seq, ev.T, ev.Outcome))
		}
	}
	wantEnds := []string{"seq0 1 " + obs.OutcomeFailed, "seq0 3 " + obs.OutcomeOK, "seq1 3 " + obs.OutcomeOK}
	if fmt.Sprint(ends) != fmt.Sprint(wantEnds) {
		t.Fatalf("journal move ends = %q, want %q", ends, wantEnds)
	}
}
