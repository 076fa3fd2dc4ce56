package ctl

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/obs"
)

// State is the controller's top-level mode, exposed on /status and as
// rex_ctl_state. It is derived, never stored: see stateOf.
type State int

// Controller states.
const (
	// StateIdle: watching load, no plan outstanding.
	StateIdle State = iota
	// StateSolving: a re-solve is running on a planning copy.
	StateSolving
	// StateMigrating: a plan is installed and the executor is draining it.
	StateMigrating
)

// stateOf derives the controller state from its two sources of truth:
// whether a solve round is running, and whether the executor has drained
// its plan.
func stateOf(solving, done bool) State {
	switch {
	case solving:
		return StateSolving
	case !done:
		return StateMigrating
	default:
		return StateIdle
	}
}

// String names the state.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateSolving:
		return "solving"
	case StateMigrating:
		return "migrating"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config parameterizes the controller.
type Config struct {
	// Window is the seconds between load snapshots (one control round);
	// it must be positive and finite.
	Window float64
	// Policy is the solve trigger (hysteresis).
	Policy Policy
	// Budget bounds each solve round.
	Budget Budget
	// Solver is the base SRA configuration; Iterations and Seed are
	// overridden per round from Budget and Seed.
	Solver core.Config
	// Exec parameterizes the migration executor.
	Exec ExecConfig
	// Seed decorrelates per-round solver seeds.
	Seed int64
	// OnRound, when set, is called after every completed control round
	// with that round's stat (outside the controller lock). rexd uses it
	// for progress logging.
	OnRound func(RoundStat)

	// Registry, when non-nil, receives the control-plane metric families
	// (round/solve lifecycle, executor migration lifecycle, solver
	// telemetry, and the live balance report) and is what /metrics
	// renders. Nil disables metrics, and /metrics answers 404.
	Registry *obs.Registry
	// Journal, when non-nil, receives structured round/solve/move span
	// events. Every event is emitted from the Run goroutine with Clock
	// timestamps, so a virtual-clock run journals bit-reproducibly
	// (byte-identical across runs and GOMAXPROCS).
	Journal *obs.Journal
	// Tracer, when non-nil, adds round → solve → move trace spans to the
	// journal (obs.SpanTrace records). Span identity is a pure function
	// of (round, move seq) — see obs.RoundTraceID — so these spans join
	// causally with the query traces a simulator emits, without the two
	// layers sharing any runtime state.
	Tracer *obs.Tracer
}

// DefaultConfig returns a continuous-operation configuration: 10-second
// windows, the default hysteresis band, and a small per-round budget.
func DefaultConfig() Config {
	return Config{
		Window: 10,
		Policy: DefaultPolicy(),
		Budget: DefaultBudget(),
		Solver: core.DefaultConfig(),
		Exec:   DefaultExecConfig(),
		Seed:   1,
	}
}

// RoundStat records one control round for /status and tests. The sequence
// of RoundStats is the controller's trajectory and is bit-identical across
// GOMAXPROCS for a fixed configuration on the virtual clock.
type RoundStat struct {
	Round     int     `json:"round"`
	At        float64 `json:"at"`
	Imbalance float64 `json:"imbalance"`
	MaxUtil   float64 `json:"max_util"`
	MeanUtil  float64 `json:"mean_util"`
	Solved    bool    `json:"solved"`
	PlanMoves int     `json:"plan_moves,omitempty"`
	Objective float64 `json:"objective,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// Controller is the online rebalancing control loop. Run drives it; the
// HTTP handlers in http.go observe it concurrently through the mutex.
type Controller struct {
	cfg   Config
	clock Clock
	src   LoadSource

	mu       sync.Mutex
	live     *cluster.Placement // guarded by: mu
	exec     *Executor          // guarded by: mu
	solving  bool               // guarded by: mu
	campaign bool               // guarded by: mu
	round    int                // guarded by: mu
	solves   int                // guarded by: mu
	// lastSolveAt is meaningful only once solves > 0.
	lastSolveAt float64        // guarded by: mu
	lastReport  cluster.Report // guarded by: mu
	history     []RoundStat    // guarded by: mu

	// Telemetry. m and collector hold nil handles without a
	// Config.Registry; journal, tracer and recorder are nil when unset.
	// recorder is handed to per-round solves unless the solver config
	// carries its own.
	m         *ctlMetrics
	collector *collector
	journal   *obs.Journal
	tracer    *obs.Tracer
	recorder  core.Recorder

	stopped atomic.Bool
}

// New creates a controller over the given live placement. The placement is
// owned by the controller from here on: the executor commits moves into it
// and load snapshots replace its cluster's shard loads.
func New(cfg Config, clock Clock, p *cluster.Placement, src LoadSource) (*Controller, error) {
	if !(cfg.Window > 0) || math.IsInf(cfg.Window, 1) {
		return nil, fmt.Errorf("ctl: Window must be positive and finite, got %g", cfg.Window)
	}
	if err := cfg.Policy.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Budget.validate(); err != nil {
		return nil, err
	}
	if clock == nil || p == nil || src == nil {
		return nil, fmt.Errorf("ctl: clock, placement, and load source are required")
	}
	ex, err := NewExecutor(p.Cluster(), cfg.Exec)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:        cfg,
		clock:      clock,
		src:        src,
		live:       p,
		exec:       ex,
		journal:    cfg.Journal,
		tracer:     cfg.Tracer,
		lastReport: p.Report(),
		m:          newCtlMetrics(cfg.Registry),
		collector:  newCollector(cfg.Registry),
	}
	c.collector.set(c.lastReport)
	// Only with a registry: a SolverRecorder over nil handles would still
	// be a non-nil core.Recorder, and the solver times each run and batches
	// iteration outcomes for any non-nil Recorder.
	if cfg.Registry != nil {
		c.recorder = obs.NewSolverRecorder(cfg.Registry)
	}
	ex.m, ex.journal, ex.tracer = c.m, c.journal, c.tracer
	return c, nil
}

// Stop makes Run return after the current round. Safe to call from any
// goroutine (e.g. a signal handler).
func (c *Controller) Stop() { c.stopped.Store(true) }

// Run executes `rounds` control rounds (≤0 means until Stop), then drains
// any outstanding migration. Every round has one shape: drive the executor
// to the window end, sleep to the boundary, ingest a load snapshot, and
// consult the trigger policy. Run returns the first hard error (a snapshot
// or solve infrastructure failure); executor plan failures are recorded in
// the round history and operation continues.
func (c *Controller) Run(rounds int) error {
	start := c.clock.Now()
	for r := 0; (rounds <= 0 || r < rounds) && !c.stopped.Load(); r++ {
		t1 := start + float64(r+1)*c.cfg.Window
		c.driveExec(t1)
		c.clock.Sleep(t1 - c.clock.Now())
		if err := c.snapshotAndDecide(t1-c.cfg.Window, t1); err != nil {
			return err
		}
	}
	c.driveExec(math.Inf(1))
	return nil
}

// driveExec runs the executor's events scheduled at or before until. c.mu
// is held across executor calls and released while the clock advances. A
// plan failure (the executor aborts the plan before reporting it) goes on
// the latest round's stat, or on a stat of its own when that round already
// carries an error.
func (c *Controller) driveExec(until float64) {
	sleepTo := SleepTo(c.clock)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.exec.Drive(c.live, c.clock.Now(), until, func(t float64) float64 {
		c.mu.Unlock()
		defer c.mu.Lock()
		return sleepTo(t)
	})
	c.m.state.Set(float64(stateOf(c.solving, c.exec.Done())))
	if err == nil {
		return
	}
	c.m.execErrors.Inc()
	if n := len(c.history); n > 0 && c.history[n-1].Err == "" {
		c.history[n-1].Err = err.Error()
	} else {
		c.history = append(c.history, RoundStat{Round: c.round, At: c.clock.Now(), Err: err.Error()})
	}
}

// snapshotAndDecide ingests the window's load observation, recomputes the
// balance report, and triggers a solve when the policy says so.
func (c *Controller) snapshotAndDecide(t0, t1 float64) error {
	loads, err := c.src.Next(t0, t1)
	if err != nil {
		return fmt.Errorf("ctl: load snapshot: %w", err)
	}
	if err := c.applyLoads(loads); err != nil {
		return err
	}

	c.mu.Lock()
	rep := c.live.Report()
	c.lastReport = rep
	now := c.clock.Now()
	trigger := c.cfg.Policy.ShouldSolve(rep.Imbalance, c.campaign, !c.exec.Done())
	if rep.Imbalance >= c.cfg.Policy.HighWater {
		c.campaign = true
	}
	// The solve, if any, runs between this locked section and the next;
	// /status and rex_ctl_state report it as solving.
	c.solving = trigger
	c.m.state.Set(float64(stateOf(c.solving, c.exec.Done())))
	stat := RoundStat{
		Round: c.round, At: now,
		Imbalance: rep.Imbalance, MaxUtil: rep.MaxUtil, MeanUtil: rep.MeanUtil,
	}
	c.round++
	c.m.rounds.Inc()
	c.collector.set(rep)
	c.mu.Unlock()

	c.journal.Emit(obs.Event{T: now, Span: obs.SpanRound, Phase: obs.PhaseBegin,
		Round: stat.Round, Imbalance: rep.Imbalance})

	if trigger {
		c.solveRound(&stat)
	}

	c.mu.Lock()
	c.solving = false
	c.m.state.Set(float64(stateOf(c.solving, c.exec.Done())))
	// End the campaign only from the freshly observed report; a solve this
	// round begins paying off in later windows.
	if c.campaign && rep.Imbalance <= c.cfg.Policy.LowWater {
		c.campaign = false
	}
	c.m.campaign.Set(boolGauge(c.campaign))
	c.history = append(c.history, stat)
	c.mu.Unlock()

	outcome := obs.OutcomeOK
	if stat.Err != "" {
		outcome = obs.OutcomeErr
	}
	endNow := c.clock.Now()
	c.journal.Emit(obs.Event{T: endNow, Span: obs.SpanRound, Phase: obs.PhaseEnd,
		Round: stat.Round, Outcome: outcome, Err: stat.Err,
		Imbalance: rep.Imbalance, Moves: stat.PlanMoves})
	if c.tracer != nil {
		c.tracer.Emit(endNow, stat.Round, obs.TraceEvent{
			ID:    obs.RoundTraceID(stat.Round).String(),
			Span:  obs.RoundSpanID(stat.Round).String(),
			Op:    obs.OpRound,
			Start: now, Machine: -1, Shard: -1, Seq: -1,
		})
	}

	if c.cfg.OnRound != nil {
		c.cfg.OnRound(stat)
	}
	return nil
}

// applyLoads replaces the live cluster's shard loads with the observed
// snapshot and rebuilds the placement aggregates on the unchanged
// assignment. Static demands never change, so in-flight executor
// reservations remain valid.
func (c *Controller) applyLoads(loads []float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl := c.live.Cluster()
	if len(loads) != cl.NumShards() {
		return fmt.Errorf("ctl: snapshot has %d loads for %d shards", len(loads), cl.NumShards())
	}
	nc := &cluster.Cluster{
		Machines: cl.Machines,
		Shards:   append([]cluster.Shard(nil), cl.Shards...),
	}
	for i := range nc.Shards {
		l := loads[i]
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("ctl: snapshot load %g for shard %d", l, i)
		}
		nc.Shards[i].Load = l
	}
	np, err := cluster.FromAssignment(nc, c.live.Assignment())
	if err != nil {
		return fmt.Errorf("ctl: rebuild placement: %w", err)
	}
	//rexlint:transfer np was built fresh above; the controller takes sole ownership
	c.live = np
	return nil
}

// solveRound runs one budgeted solve and installs the resulting plan. Any
// in-flight plan is superseded first so the solver sees a quiescent live
// placement. Solve failures (including infeasible plans) are recorded on
// the round stat; the controller returns to idle and tries again at a
// later trigger.
func (c *Controller) solveRound(stat *RoundStat) {
	c.mu.Lock()
	if !c.exec.Done() {
		c.m.supersessions.Inc()
	}
	// Journal move events from here on belong to the round that installed
	// (or, for aborts, superseded) the plan.
	c.exec.round = stat.Round
	c.exec.SetPlan(nil) // supersede: abort in-flight, cancel pending
	// The solvers only read planning, and it is the controller's private
	// clone; the live placement stays behind the mutex.
	planning := c.live.Clone()
	c.mu.Unlock()

	solveStart := c.clock.Now()
	c.journal.Emit(obs.Event{T: solveStart, Span: obs.SpanSolve, Phase: obs.PhaseBegin,
		Round: stat.Round, Imbalance: stat.Imbalance})
	emitSolveTrace := func(end float64) {
		if c.tracer == nil {
			return
		}
		c.tracer.Emit(end, stat.Round, obs.TraceEvent{
			ID:     obs.RoundTraceID(stat.Round).String(),
			Span:   obs.SolveSpanID(stat.Round).String(),
			Parent: obs.RoundSpanID(stat.Round).String(),
			Op:     obs.OpSolve,
			Start:  solveStart, Machine: -1, Shard: -1, Seq: -1,
		})
	}

	scfg := c.cfg.Solver
	scfg.Iterations = c.cfg.Budget.Iterations
	// Fresh seed per round, decorrelated by a large odd stride.
	scfg.Seed = c.cfg.Seed + int64(stat.Round)*0x9E3779B1
	if scfg.Recorder == nil {
		scfg.Recorder = c.recorder
	}
	wallStart := time.Now() //rexlint:ignore clockpurity wall time feeds metrics only, never decisions
	res, err := core.New(scfg).SolvePartitioned(planning, core.PartitionConfig{
		Partitions:     c.cfg.Budget.Partitions,
		ExchangeRounds: c.cfg.Budget.ExchangeRounds,
		Restarts:       c.cfg.Budget.Restarts,
	})
	// Wall time feeds metrics only; the journal sticks to Clock seconds so
	// virtual-clock runs stay bit-reproducible.
	c.m.solveSeconds.Observe(time.Since(wallStart).Seconds()) //rexlint:ignore clockpurity metrics-only wall time
	c.clock.Sleep(c.cfg.Budget.SolveSeconds)

	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	c.solves++
	c.m.solves.Inc()
	c.lastSolveAt = now
	stat.Solved = true
	if err != nil {
		stat.Err = err.Error()
		c.journal.Emit(obs.Event{T: now, Span: obs.SpanSolve, Phase: obs.PhaseEnd,
			Round: stat.Round, Outcome: obs.OutcomeErr, Err: stat.Err,
			Seconds: c.cfg.Budget.SolveSeconds})
		emitSolveTrace(now)
		return
	}
	stat.PlanMoves = res.Plan.NumMoves()
	stat.Objective = res.Objective
	c.m.plannedMoves.Add(float64(res.Plan.NumMoves()))
	c.m.lastPlanMoves.Set(float64(res.Plan.NumMoves()))
	c.journal.Emit(obs.Event{T: now, Span: obs.SpanSolve, Phase: obs.PhaseEnd,
		Round: stat.Round, Outcome: obs.OutcomeOK,
		Objective: res.Objective, Moves: res.Plan.NumMoves(),
		Seconds: c.cfg.Budget.SolveSeconds})
	emitSolveTrace(now)
	c.exec.SetPlan(res.Plan)
	if res.Plan.NumMoves() == 0 {
		return
	}
	if err := c.exec.Tick(c.live, now); err != nil {
		stat.Err = err.Error()
	}
}

// ExecStatus is the executor excerpt embedded in Status.
type ExecStatus struct {
	ExecCounters
	Done bool `json:"done"`
}

// Status is the controller snapshot served on /status.
type Status struct {
	State       string      `json:"state"`
	Now         float64     `json:"now"`
	Round       int         `json:"round"`
	Solves      int         `json:"solves"`
	LastSolveAt float64     `json:"last_solve_at"`
	Campaign    bool        `json:"campaign"`
	Imbalance   float64     `json:"imbalance"`
	MaxUtil     float64     `json:"max_util"`
	MeanUtil    float64     `json:"mean_util"`
	Executor    ExecStatus  `json:"executor"`
	LastRounds  []RoundStat `json:"last_rounds,omitempty"`
}

// Status returns a consistent snapshot of the controller state.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		State:       stateOf(c.solving, c.exec.Done()).String(),
		Now:         c.clock.Now(),
		Round:       c.round,
		Solves:      c.solves,
		LastSolveAt: c.lastSolveAt,
		Campaign:    c.campaign,
		Imbalance:   c.lastReport.Imbalance,
		MaxUtil:     c.lastReport.MaxUtil,
		MeanUtil:    c.lastReport.MeanUtil,
		Executor:    ExecStatus{ExecCounters: c.exec.Counters(), Done: c.exec.Done()},
	}
	tail := c.history
	if len(tail) > 16 {
		tail = tail[len(tail)-16:]
	}
	st.LastRounds = append([]RoundStat(nil), tail...)
	return st
}

// Report returns the balance report of the most recent snapshot.
func (c *Controller) Report() cluster.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastReport
}

// History returns a copy of every recorded round.
func (c *Controller) History() []RoundStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RoundStat(nil), c.history...)
}

// SnapshotPlacement returns a deep copy of the live placement.
func (c *Controller) SnapshotPlacement() *cluster.Placement {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live.Clone()
}

// PlanView returns the per-move state of the current schedule.
func (c *Controller) PlanView() []MoveView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exec.MoveStates()
}

// ExecCounters returns a snapshot of the executor statistics.
func (c *Controller) ExecCounters() ExecCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exec.Counters()
}
