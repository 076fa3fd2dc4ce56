package ctl

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/obs"
	"rexchange/internal/plan"
)

// obsExec attaches a fresh registry + journal to an executor and returns
// the handles for assertions.
func obsExec(t *testing.T, c *cluster.Cluster, cfg ExecConfig) (*Executor, *ctlMetrics, *strings.Builder) {
	t.Helper()
	ex := newExec(t, c, cfg)
	m := newCtlMetrics(obs.NewRegistry())
	var buf strings.Builder
	ex.m = m
	ex.journal = obs.NewJournal(&buf)
	return ex, m, &buf
}

// TestAbortClearsRetryState is the supersession regression test: cancelled
// and aborted moves must not keep attempts/readyAt/finishAt behind, and
// rex_moves_aborted_total must count exactly the aborted in-flight copies
// (not the cancelled pending/retrying ones).
func TestAbortClearsRetryState(t *testing.T) {
	c := mkCluster([]float64{20, 10, 10}, []float64{4, 8})
	live := mustPlacement(t, c, []cluster.MachineID{0, 0})
	pl := &plan.Plan{Moves: []plan.Move{
		{S: 0, From: 0, To: 1},
		{S: 1, From: 0, To: 2},
	}}
	cfg := ExecConfig{Migration: MigrationConfig{Bandwidth: 1, Concurrency: 2}}
	cfg.Failure = func(mv plan.Move, attempt int) bool { return mv.S == 0 && attempt == 1 }
	ex, m, buf := obsExec(t, c, cfg)
	ex.SetPlan(pl)

	if err := ex.Tick(live, 0); err != nil { // both dispatch
		t.Fatal(err)
	}
	if err := ex.Tick(live, 4); err != nil { // shard 0 copy fails → retrying
		t.Fatal(err)
	}
	ctr := ex.Counters()
	if ctr.Failures != 1 || ctr.InFlight != 1 {
		t.Fatalf("setup: want shard 0 retrying and shard 1 in flight, got %+v", ctr)
	}

	ex.SetPlan(nil) // supersede mid-retry, mid-flight

	ctr = ex.Counters()
	if ctr.Aborted != 1 || ctr.Cancelled != 1 {
		t.Fatalf("counters after supersede = %+v, want 1 aborted + 1 cancelled", ctr)
	}
	if got := m.aborted.Value(); got != float64(ctr.Aborted) {
		t.Fatalf("rex_moves_aborted_total = %g, want %d (exactly the aborted copies)", got, ctr.Aborted)
	}
	if got := m.cancelled.Value(); got != float64(ctr.Cancelled) {
		t.Fatalf("rex_exec_cancelled_total = %g, want %d", got, ctr.Cancelled)
	}
	if got := m.inFlight.Value(); got != 0 {
		t.Fatalf("rex_exec_in_flight = %g after abort, want 0", got)
	}
	for i := range ex.moves {
		st := &ex.moves[i]
		if st.status != MoveCancelled {
			t.Fatalf("move %d status %v, want cancelled", i, st.status)
		}
		if st.attempts != 0 || st.readyAt != 0 || st.finishAt != 0 || st.startedAt != 0 {
			t.Fatalf("move %d kept retry state behind: %+v", i, *st)
		}
	}
	for _, mv := range ex.MoveStates() {
		if mv.Attempts != 0 || mv.FinishAt != 0 {
			t.Fatalf("MoveStates leaked scheduling state: %+v", mv)
		}
	}

	evs, err := obs.ReadJournal(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	aborts := 0
	for _, ev := range evs {
		if ev.Span == obs.SpanMove && ev.Phase == obs.PhaseEnd && ev.Outcome == obs.OutcomeAborted {
			aborts++
			if ev.Move == nil || ev.Move.Shard != 1 {
				t.Fatalf("aborted journal event names wrong move: %+v", ev)
			}
		}
	}
	if aborts != 1 {
		t.Fatalf("journal recorded %d aborted move spans, want 1", aborts)
	}
}

// TestAbandonedPlanReleasesReservationsOnce guards the double-release bug:
// when a move exhausts MaxAttempts, complete() has already released its
// destination reservation, and the subsequent abort() must not release it
// again — a negative reservation would silently loosen admission for every
// later plan.
func TestAbandonedPlanReleasesReservationsOnce(t *testing.T) {
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
	failing := true
	cfg.Failure = func(plan.Move, int) bool { return failing }
	ex := newExec(t, c, cfg)
	ex.SetPlan(pl)
	clock := NewVirtualClock()

	if err := ex.Tick(live, clock.Now()); err != nil {
		t.Fatal(err)
	}
	_, tickErr := ex.Drive(live, clock.Now(), math.Inf(1), SleepTo(clock))
	if tickErr == nil || !strings.Contains(tickErr.Error(), "abandoning plan") {
		t.Fatalf("expected abandonment, got %v", tickErr)
	}
	for mID := 0; mID < c.NumMachines(); mID++ {
		for r, v := range ex.reservation(cluster.MachineID(mID)) {
			if v != 0 {
				t.Fatalf("machine %d resource %d keeps reservation %g after abandonment", mID, r, v)
			}
		}
	}

	// A follow-up plan over the same shards must run cleanly: with the
	// double release, machine 1 would carry a negative reservation and
	// debugasserts' transient recomputation would panic on the next Tick.
	failing = false
	pl2, err := plan.DefaultPlanner().Build(live, target)
	if err != nil {
		t.Fatal(err)
	}
	ex.SetPlan(pl2)
	drive(t, ex, live, clock)
	if live.Home(0) != 1 || live.Home(1) != 1 {
		t.Fatalf("follow-up plan not realized: homes %d,%d", live.Home(0), live.Home(1))
	}
}

// TestControllerObservability runs the end-to-end drift scenario with a
// registry and journal attached, then cross-checks all three telemetry
// surfaces against the controller's own accounting: the /metrics
// exposition (well-formed, required families present, counter values
// matching ExecCounters), the event journal (span counts matching
// dispatch/completion/abort counts), and the pprof surface.
func TestControllerObservability(t *testing.T) {
	cfg, p, src := e2eConfig(t, 80, 960, 11)
	cfg.Budget = Budget{Iterations: 150, Restarts: 2, SolveSeconds: 1}
	reg := obs.NewRegistry()
	var journalBuf strings.Builder
	cfg.Registry = reg
	cfg.Journal = obs.NewJournal(&journalBuf)
	c, err := New(cfg, NewVirtualClock(), p, src)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 6
	if err := c.Run(rounds); err != nil {
		t.Fatal(err)
	}

	// 1. Scrape /metrics through the real handler and lint it.
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(body)
	problems := obs.LintExposition(strings.NewReader(exposition),
		"rex_imbalance", "rex_serving", "rex_machines",
		"rex_ctl_rounds_total", "rex_ctl_solves_total", "rex_ctl_state",
		"rex_ctl_solve_seconds", "rex_ctl_planned_moves_total",
		"rex_exec_dispatched_total", "rex_exec_completed_total",
		"rex_exec_in_flight", "rex_exec_copy_seconds",
		"rex_exec_bytes_moved_total", "rex_moves_aborted_total",
		"rex_solver_iterations_total", "rex_solver_runs_total",
	)
	if len(problems) != 0 {
		t.Fatalf("/metrics fails lint: %v\n%s", problems, exposition)
	}

	// 2. Registry counters must agree with the controller's accounting.
	st := c.Status()
	ctr := st.Executor.ExecCounters
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"rex_ctl_rounds_total", c.m.rounds.Value(), float64(st.Round)},
		{"rex_ctl_solves_total", c.m.solves.Value(), float64(st.Solves)},
		{"rex_exec_dispatched_total", c.m.dispatched.Value(), float64(ctr.Dispatched)},
		{"rex_exec_completed_total", c.m.completed.Value(), float64(ctr.Completed)},
		{"rex_exec_failures_total", c.m.failures.Value(), float64(ctr.Failures)},
		{"rex_moves_aborted_total", c.m.aborted.Value(), float64(ctr.Aborted)},
		{"rex_exec_cancelled_total", c.m.cancelled.Value(), float64(ctr.Cancelled)},
		{"rex_exec_bytes_moved_total", c.m.bytesMoved.Value(), ctr.BytesMoved},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %g, want %g", ck.name, ck.got, ck.want)
		}
	}
	if got := int(c.m.copySeconds.Count()); got != ctr.Dispatched-ctr.InFlight {
		t.Errorf("rex_exec_copy_seconds count = %d, want %d finished copies",
			got, ctr.Dispatched-ctr.InFlight)
	}
	if st.Solves == 0 {
		t.Fatal("scenario never solved; observability checks are vacuous")
	}
	if int(c.m.solveSeconds.Count()) != st.Solves {
		t.Errorf("rex_ctl_solve_seconds count = %d, want %d", int(c.m.solveSeconds.Count()), st.Solves)
	}

	// 3. The journal must tell the same story.
	evs, err := obs.ReadJournal(strings.NewReader(journalBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Journal.Err() != nil {
		t.Fatal(cfg.Journal.Err())
	}
	var roundBegin, solveEnd, moveBegin, moveOK, moveAborted int
	for _, ev := range evs {
		switch {
		case ev.Span == obs.SpanRound && ev.Phase == obs.PhaseBegin:
			roundBegin++
		case ev.Span == obs.SpanSolve && ev.Phase == obs.PhaseEnd:
			solveEnd++
		case ev.Span == obs.SpanMove && ev.Phase == obs.PhaseBegin:
			moveBegin++
		case ev.Span == obs.SpanMove && ev.Phase == obs.PhaseEnd && ev.Outcome == obs.OutcomeOK:
			moveOK++
		case ev.Span == obs.SpanMove && ev.Phase == obs.PhaseEnd && ev.Outcome == obs.OutcomeAborted:
			moveAborted++
		}
	}
	if roundBegin != rounds {
		t.Errorf("journal has %d round-begin events, want %d", roundBegin, rounds)
	}
	if solveEnd != st.Solves {
		t.Errorf("journal has %d solve-end events, want %d", solveEnd, st.Solves)
	}
	if moveBegin != ctr.Dispatched {
		t.Errorf("journal has %d move-begin events, want %d dispatches", moveBegin, ctr.Dispatched)
	}
	if moveOK != ctr.Completed {
		t.Errorf("journal has %d completed move spans, want %d", moveOK, ctr.Completed)
	}
	if moveAborted != ctr.Aborted {
		t.Errorf("journal has %d aborted move spans, want %d", moveAborted, ctr.Aborted)
	}

	// 4. pprof is mounted on the same mux.
	pr, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline returned %d", pr.StatusCode)
	}
}

// TestJournalDeterministicAcrossGOMAXPROCS pins the acceptance contract:
// for a fixed configuration on the virtual clock, the event journal's byte
// stream is identical regardless of scheduler parallelism. Every event is
// emitted from the Run goroutine with Clock timestamps, so parallel solver
// restarts cannot reorder or retime it.
func TestJournalDeterministicAcrossGOMAXPROCS(t *testing.T) {
	runAt := func(procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg, p, src := e2eConfig(t, 80, 960, 11)
		cfg.Budget = Budget{Iterations: 150, Restarts: 3, SolveSeconds: 1}
		var buf strings.Builder
		cfg.Journal = obs.NewJournal(&buf)
		cfg.Registry = obs.NewRegistry()
		c, err := New(cfg, NewVirtualClock(), p, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(6); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := runAt(1)
	many := runAt(4)
	if one == "" {
		t.Fatal("empty journal")
	}
	if one != many {
		t.Fatalf("journal bytes differ across GOMAXPROCS:\n 1: %d bytes\n 4: %d bytes", len(one), len(many))
	}
}
