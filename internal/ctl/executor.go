package ctl

import (
	"fmt"
	"math"
	"slices"

	"rexchange/internal/cluster"
	"rexchange/internal/obs"
	"rexchange/internal/plan"
	"rexchange/internal/vec"
)

// MoveStatus is the lifecycle state of one scheduled move inside the
// executor. The transition table below is machine-checked by rexlint's
// statecheck analyzer on every path through this file: a status
// assignment outside the table is a build failure.
//
//rexlint:transition MovePending -> MoveInFlight MoveCancelled
//rexlint:transition MoveInFlight -> MoveDone MoveRetrying MoveCancelled
//rexlint:transition MoveRetrying -> MoveInFlight MoveCancelled
//rexlint:transition MoveDone ->
//rexlint:transition MoveCancelled ->
type MoveStatus int

// Move lifecycle states.
const (
	// MovePending: not yet dispatched.
	MovePending MoveStatus = iota
	// MoveInFlight: copy running; its static demand counts on the
	// destination while the shard still occupies the source.
	MoveInFlight
	// MoveRetrying: the copy failed and the move waits out its backoff
	// before redispatch.
	MoveRetrying
	// MoveDone: committed to the live placement.
	MoveDone
	// MoveCancelled: abandoned because a newer plan superseded this one
	// (or the controller aborted). The shard remains on its source.
	MoveCancelled
)

// String names the status for JSON/metrics output.
func (s MoveStatus) String() string {
	switch s {
	case MovePending:
		return "pending"
	case MoveInFlight:
		return "in-flight"
	case MoveRetrying:
		return "retrying"
	case MoveDone:
		return "done"
	case MoveCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// FailureFunc injects per-move copy failures for testing and chaos drills:
// it is consulted when a copy finishes, with attempt counting from 1, and
// returning true fails that attempt. A nil FailureFunc never fails.
type FailureFunc func(mv plan.Move, attempt int) bool

// MoveRef names one scheduled move globally: the control round whose
// solve installed the plan, and the move's sequence number within that
// plan. It is the causal join key of the tracing layer — a query leg's
// blocked_by link and the move's own trace span both carry it, and
// obs.MoveSpanID is a pure function of it.
type MoveRef struct {
	Round int `json:"round"`
	Seq   int `json:"seq"`
}

// MoveObserver receives copy lifecycle callbacks from the executor. The
// discrete-event simulator uses it to degrade the source machine's
// effective service capacity while a copy is streaming off it, to
// reroute queries once the move commits, and to attribute per-query
// delay to the identified move (ref); chaos tooling can use it to
// correlate failures with in-flight work.
//
// Callbacks fire synchronously on the executor's Tick path (the single
// control-loop goroutine), in deterministic order, with Clock timestamps.
// Implementations must not call back into the executor or controller.
// Every MoveStarted is paired with exactly one MoveFinished carrying the
// same ref: committed is true when the copy landed and the shard now
// lives on mv.To, false when the attempt failed (a retry may follow as a
// fresh MoveStarted) or the copy was aborted by plan supersession.
type MoveObserver interface {
	// MoveStarted reports a copy dispatch at time at, expected to finish
	// at eta (absolute Clock seconds).
	MoveStarted(mv plan.Move, ref MoveRef, at, eta float64)
	// MoveFinished reports the end of the in-flight copy started by the
	// matching MoveStarted.
	MoveFinished(mv plan.Move, ref MoveRef, at float64, committed bool)
}

// MigrationConfig is the copy physics of one migration: every move streams
// at Bandwidth, and at most Concurrency moves are in flight at once.
type MigrationConfig struct {
	// Bandwidth is copy throughput in disk units per second per move.
	Bandwidth float64
	// Concurrency is the maximum number of simultaneously in-flight
	// moves.
	Concurrency int
}

// ExecConfig parameterizes the asynchronous migration executor.
type ExecConfig struct {
	// Migration supplies the per-move bandwidth model and the bound on
	// simultaneously in-flight moves. ExecutePlan takes the same type, so
	// an offline what-if and the live executor run identical physics.
	Migration MigrationConfig
	// MaxAttempts bounds dispatch attempts per move before the executor
	// abandons the whole plan; 0 means 8.
	MaxAttempts int
	// BackoffBase is the delay before the first retry (seconds); each
	// subsequent retry doubles it, capped at BackoffMax. Zero values
	// default to 0.5s and 30s.
	BackoffBase, BackoffMax float64
	// Failure injects copy failures; nil never fails.
	Failure FailureFunc
	// Observer, when non-nil, receives copy lifecycle callbacks (see
	// MoveObserver). The discrete-event simulator installs itself here.
	Observer MoveObserver
}

// DefaultExecConfig copies at 100 disk units/second with four concurrent
// moves.
func DefaultExecConfig() ExecConfig {
	return ExecConfig{
		Migration: MigrationConfig{Bandwidth: 100, Concurrency: 4},
	}
}

// normalize fills defaults and validates.
func (cfg *ExecConfig) normalize() error {
	if bw := cfg.Migration.Bandwidth; !(bw > 0) || math.IsInf(bw, 1) {
		return fmt.Errorf("ctl: executor Bandwidth must be positive and finite, got %g", bw)
	}
	if cfg.Migration.Concurrency <= 0 {
		return fmt.Errorf("ctl: executor Concurrency must be positive, got %d", cfg.Migration.Concurrency)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.MaxAttempts < 0 {
		return fmt.Errorf("ctl: negative MaxAttempts %d", cfg.MaxAttempts)
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 0.5
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 30
	}
	return nil
}

// moveState tracks one move through the executor.
type moveState struct {
	mv        plan.Move
	status    MoveStatus
	attempts  int     // completed dispatches (successful or failed)
	readyAt   float64 // earliest redispatch time while retrying
	finishAt  float64 // completion time while in flight
	startedAt float64 // dispatch time of the current copy while in flight
}

// MoveView is the externally visible state of one scheduled move.
type MoveView struct {
	Seq      int               `json:"seq"`
	Shard    cluster.ShardID   `json:"s"`
	From     cluster.MachineID `json:"from"`
	To       cluster.MachineID `json:"to"`
	Status   string            `json:"status"`
	Attempts int               `json:"attempts,omitempty"`
	FinishAt float64           `json:"finish_at,omitempty"`
}

// ExecCounters are the executor's cumulative statistics across all plans it
// has run.
type ExecCounters struct {
	Dispatched   int     `json:"dispatched"`
	Completed    int     `json:"completed"`
	Failures     int     `json:"failures"`
	Aborted      int     `json:"aborted"`
	Cancelled    int     `json:"cancelled"`
	InFlight     int     `json:"in_flight"`
	Pending      int     `json:"pending"`
	PeakParallel int     `json:"peak_parallel"`
	BytesMoved   float64 `json:"bytes_moved"`
}

// Executor drives a move schedule against the live placement with bounded
// in-flight concurrency. It is event-driven: the owner (the controller
// loop, or any single goroutine) asks NextEvent for the next completion or
// retry time, advances its clock, and calls Tick. Dispatch is strictly in
// plan order — a later move never overtakes a blocked earlier one — which
// preserves the plan's serial feasibility proof, and every dispatch
// re-checks the transient both-endpoints constraint against the live
// placement plus the demand of the copies in flight, so a drifting or
// superseded environment can never oversubscribe a machine.
//
// Executor is not safe for concurrent use; the controller serializes access
// under its own lock.
type Executor struct {
	cfg   ExecConfig
	c     *cluster.Cluster
	moves []moveState
	// flying holds the plan indices of the MoveInFlight moves in dispatch
	// order, head the first pending or retrying move (len(moves) if none).
	// Reservations and counts derive from them, so an event costs
	// O(Concurrency), not O(plan).
	flying   []int
	head     int
	counters ExecCounters

	// Telemetry, attached by the controller (journal and tracer may be
	// nil; m holds nil handles without a registry). round tags journal
	// events with the current control round; planRound is the
	// round whose solve installed the running plan (they differ during a
	// supersession abort, where round is already the superseding round)
	// and keys the MoveRefs and trace span IDs of its moves; lastNow is
	// the clock value of the most recent Tick, used to timestamp aborts
	// (SetPlan carries no clock).
	m         *ctlMetrics
	journal   *obs.Journal
	tracer    *obs.Tracer
	round     int
	planRound int
	lastNow   float64
}

// AttachObs attaches a metric registry and/or event journal to a
// standalone executor (plan replay); either may be nil. Executors owned by
// a Controller are wired through Config.Registry/Journal in New instead —
// do not call both, the control-plane families register once per registry.
func (e *Executor) AttachObs(reg *obs.Registry, j *obs.Journal) {
	e.m = newCtlMetrics(reg)
	e.journal = j
}

// emitMoveTrace journals the trace span of move seq ending at time t.
// Span identity is a pure function of (planRound, seq), so the query legs
// a move delays can name it without ever talking to the executor.
func (e *Executor) emitMoveTrace(t float64, seq int, st *moveState) {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(t, e.planRound, obs.TraceEvent{
		ID:      obs.RoundTraceID(e.planRound).String(),
		Span:    obs.MoveSpanID(e.planRound, seq).String(),
		Parent:  obs.RoundSpanID(e.planRound).String(),
		Op:      obs.OpMove,
		Start:   st.startedAt,
		Machine: int(st.mv.To),
		Shard:   int(st.mv.S),
		Seq:     seq,
	})
}

// emitMove journals one move-span event. Events carry Clock timestamps
// only, so a virtual-clock run journals bit-reproducibly.
func (e *Executor) emitMove(t float64, phase, outcome string, seq int, st *moveState, seconds float64) {
	e.journal.Emit(obs.Event{
		T: t, Span: obs.SpanMove, Phase: phase, Round: e.round,
		Outcome: outcome, Seconds: seconds,
		Move: &obs.MoveEvent{
			Seq: seq, Shard: int(st.mv.S), From: int(st.mv.From), To: int(st.mv.To),
			Attempt: st.attempts,
		},
	})
}

// NewExecutor creates an executor for the given cluster with no plan
// installed.
func NewExecutor(c *cluster.Cluster, cfg ExecConfig) (*Executor, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &Executor{
		cfg:    cfg,
		c:      c,
		flying: make([]int, 0, cfg.Migration.Concurrency),
		m:      newCtlMetrics(nil),
	}, nil
}

// SetPlan installs a new schedule, superseding whatever is currently
// running: pending moves are cancelled and in-flight copies aborted (the
// shards stay on their sources). Passing nil just cancels the current plan.
func (e *Executor) SetPlan(p *plan.Plan) {
	e.abort()
	if p == nil {
		return
	}
	e.moves = make([]moveState, len(p.Moves))
	for i, mv := range p.Moves {
		e.moves[i] = moveState{mv: mv}
	}
	e.head = 0
	e.planRound = e.round
}

// abort cancels every non-terminal move, in plan order. The
// retry/schedule state of cancelled moves (attempts, readyAt, finishAt)
// is cleared: a cancelled move never runs again, and leaving stale
// timestamps behind would leak bogus scheduling state through MoveStates.
func (e *Executor) abort() {
	for i := range e.moves {
		st := &e.moves[i]
		switch st.status {
		case MoveInFlight:
			e.counters.Aborted++
			e.m.aborted.Inc()
			e.copyEnded(i, st, e.lastNow, obs.OutcomeAborted)
		case MovePending, MoveRetrying:
			e.counters.Cancelled++
			e.m.cancelled.Inc()
		default:
			continue
		}
		st.status = MoveCancelled
		st.attempts, st.readyAt, st.finishAt, st.startedAt = 0, 0, 0, 0
	}
	e.flying = e.flying[:0]
	e.head = len(e.moves)
	e.m.inFlight.Set(0)
}

// copyEnded reports the end of move seq's in-flight copy at time at:
// journal end event, trace span, then the observer, in that order.
func (e *Executor) copyEnded(seq int, st *moveState, at float64, outcome string) {
	e.emitMove(at, obs.PhaseEnd, outcome, seq, st, at-st.startedAt)
	e.emitMoveTrace(at, seq, st)
	if e.cfg.Observer != nil {
		e.cfg.Observer.MoveFinished(st.mv, MoveRef{Round: e.planRound, Seq: seq}, at, outcome == obs.OutcomeOK)
	}
}

// reservation is the static demand the in-flight copies hold on machine
// m: the shards they carry still occupy their sources.
func (e *Executor) reservation(m cluster.MachineID) vec.Vec {
	var r vec.Vec
	for _, i := range e.flying {
		if mv := e.moves[i].mv; mv.To == m {
			r = r.Add(e.c.Shards[mv.S].Static)
		}
	}
	return r
}

// Done reports whether every scheduled move is terminal (done or
// cancelled). A fresh executor with no plan is Done.
func (e *Executor) Done() bool { return len(e.flying) == 0 && e.head == len(e.moves) }

// NextEvent returns the earliest time after now at which Tick will make
// progress (a copy completion, or the head move's backoff expiring), or
// ok=false when nothing is scheduled. A retry timer that has already
// expired is not an event: after a Tick at `now`, such a move is
// necessarily blocked on admission or concurrency and only a completion
// can unblock it.
func (e *Executor) NextEvent(now float64) (at float64, ok bool) {
	next := math.Inf(1)
	for _, i := range e.flying {
		next = min(next, e.moves[i].finishAt)
	}
	if e.head < len(e.moves) {
		if st := &e.moves[e.head]; st.status == MoveRetrying && st.readyAt > now && st.readyAt < next {
			next = st.readyAt
		}
	}
	if math.IsInf(next, 1) {
		return 0, false
	}
	return next, true
}

// Tick processes every completion due at or before now, then dispatches as
// many moves as order, concurrency, backoff, and transient admission allow.
// live is the placement moves commit into. Tick returns an error when the
// plan must be abandoned (a move exceeded MaxAttempts, or the schedule is
// inconsistent with the live placement); the executor aborts the plan
// before returning such an error.
func (e *Executor) Tick(live *cluster.Placement, now float64) error {
	e.lastNow = now
	if err := e.complete(live, now); err != nil {
		e.abort()
		return err
	}
	if err := e.dispatch(live, now); err != nil {
		e.abort()
		return err
	}
	if cluster.DebugAsserts {
		e.assertTransient(live)
	}
	e.m.inFlight.Set(float64(len(e.flying)))
	return nil
}

// Drive is the executor's event loop: while a completion or retry is
// scheduled at or before until, advance(t) takes the owner's clock to it
// and returns the time reached — SleepTo(clock) on a Clock, the identity
// for an offline run that jumps — and the executor Ticks there. The
// executor is quiescent during advance, so an owner that guards it with a
// lock may release the lock for the call (the sync.Cond.Wait shape). Drive
// returns the time of its last Tick (now when there was none) and the
// first Tick error.
func (e *Executor) Drive(live *cluster.Placement, now, until float64, advance func(t float64) float64) (float64, error) {
	for {
		next, ok := e.NextEvent(now)
		if !ok || next > until {
			return now, nil
		}
		now = advance(next)
		if err := e.Tick(live, now); err != nil {
			return now, err
		}
	}
}

// ExecutePlan executes p offline: a fresh executor drains it against a
// clone of from (from itself is not modified), jumping time from event to
// event, so the admission rules are exactly a live run's. It returns the
// executor's counters and the makespan in seconds; a plan the executor
// abandons (wrong source, a head move that can never be admitted) is an
// error.
func ExecutePlan(from *cluster.Placement, p *plan.Plan, cfg MigrationConfig) (ExecCounters, float64, error) {
	e, err := NewExecutor(from.Cluster(), ExecConfig{Migration: cfg})
	if err != nil {
		return ExecCounters{}, 0, err
	}
	live := from.Clone()
	e.SetPlan(p)
	if err := e.Tick(live, 0); err != nil {
		return e.Counters(), 0, err
	}
	makespan, err := e.Drive(live, 0, math.Inf(1), func(t float64) float64 { return t })
	return e.Counters(), makespan, err
}

// complete commits or fails every in-flight move whose copy has finished,
// in deterministic (finish time, plan order) order.
func (e *Executor) complete(live *cluster.Placement, now float64) error {
	for {
		// earliest due completion; plan order, not position in flying,
		// breaks timestamp ties (a redispatched move sits behind later ones)
		best, at := -1, 0
		for k, i := range e.flying {
			fin := e.moves[i].finishAt
			if fin > now {
				continue
			}
			if best < 0 || fin < e.moves[best].finishAt || fin <= e.moves[best].finishAt && i < best {
				best, at = i, k
			}
		}
		if best < 0 {
			return nil
		}
		e.flying = slices.Delete(e.flying, at, at+1)
		st := &e.moves[best]
		mv := st.mv
		e.m.copySeconds.Observe(st.finishAt - st.startedAt)
		if e.cfg.Failure != nil && e.cfg.Failure(mv, st.attempts) {
			e.counters.Failures++
			e.m.failures.Inc()
			e.copyEnded(best, st, st.finishAt, obs.OutcomeFailed)
			st.status = MoveRetrying
			if st.attempts >= e.cfg.MaxAttempts {
				// Tick aborts the plan on this error, cancelling the move
				// with every other one still waiting.
				return fmt.Errorf("ctl: move %d (shard %d → machine %d) failed %d times; abandoning plan",
					best, mv.S, mv.To, st.attempts)
			}
			st.readyAt = st.finishAt + e.backoff(st.attempts)
			e.head = min(e.head, best)
			continue
		}
		live.Move(mv.S, mv.To)
		if cluster.DebugAsserts {
			live.MustInvariants("ctl executor commit")
		}
		st.status = MoveDone
		e.counters.Completed++
		e.m.completed.Inc()
		e.copyEnded(best, st, st.finishAt, obs.OutcomeOK)
	}
}

// backoff returns the capped exponential retry delay after `failures`
// failed attempts.
func (e *Executor) backoff(failures int) float64 {
	d := e.cfg.BackoffBase * math.Pow(2, float64(failures-1))
	if d > e.cfg.BackoffMax {
		d = e.cfg.BackoffMax
	}
	return d
}

// dispatch starts moves strictly in plan order while concurrency and
// transient admission allow.
func (e *Executor) dispatch(live *cluster.Placement, now float64) error {
	for len(e.flying) < e.cfg.Migration.Concurrency && e.head < len(e.moves) {
		i := e.head
		st := &e.moves[i]
		mv := st.mv
		if st.status == MoveRetrying && st.readyAt > now {
			return nil // head-of-line waits out its backoff
		}
		if slices.ContainsFunc(e.flying, func(j int) bool { return e.moves[j].mv.S == mv.S }) {
			return nil // the shard's previous hop has not landed yet
		}
		if live.Home(mv.S) != mv.From {
			return fmt.Errorf("ctl: move %d expects shard %d on machine %d, found %d",
				i, mv.S, mv.From, live.Home(mv.S))
		}
		if !e.canAdmit(live, mv.S, mv.To) {
			e.m.admissionBlocked.Inc()
			if len(e.flying) == 0 {
				// Nothing in flight will ever free space: the plan is not
				// serially feasible against the live placement.
				return fmt.Errorf("ctl: move %d (shard %d → machine %d) never fits the live placement",
					i, mv.S, mv.To)
			}
			return nil // head-of-line blocks until a completion frees space
		}
		retry := st.status == MoveRetrying
		size := e.c.Shards[mv.S].Static[vec.Disk]
		st.status = MoveInFlight
		st.attempts++
		st.startedAt = now
		st.finishAt = now + size/e.cfg.Migration.Bandwidth
		e.flying = append(e.flying, i)
		for e.head < len(e.moves) && !actionable(e.moves[e.head].status) {
			e.head++ // past i, and past later moves a retry had let go ahead
		}
		e.counters.Dispatched++
		e.counters.BytesMoved += size
		e.counters.PeakParallel = max(e.counters.PeakParallel, len(e.flying))
		e.m.dispatched.Inc()
		e.m.bytesMoved.Add(size)
		if retry {
			e.m.retries.Inc()
		}
		e.emitMove(now, obs.PhaseBegin, "", i, st, 0)
		if e.cfg.Observer != nil {
			e.cfg.Observer.MoveStarted(mv, MoveRef{Round: e.planRound, Seq: i}, now, st.finishAt)
		}
	}
	return nil
}

// actionable reports whether a move in status s waits for dispatch.
func actionable(s MoveStatus) bool { return s == MovePending || s == MoveRetrying }

// canAdmit checks the transient both-endpoints constraint against the live
// placement: the shard still occupies its source (it has not moved yet), so
// admission only needs the destination to fit the shard on top of its
// resident usage plus the demand of every copy in flight to it, and no
// anti-affinity replica may already live there.
func (e *Executor) canAdmit(live *cluster.Placement, s cluster.ShardID, m cluster.MachineID) bool {
	sh := &e.c.Shards[s]
	if sh.Group != 0 && live.GroupCount(m, sh.Group) > 0 {
		return false
	}
	return sh.Static.FitsWithin(live.Used(m).Add(e.reservation(m)), e.c.Machines[m].Capacity)
}

// Counters returns a snapshot of the cumulative executor statistics.
func (e *Executor) Counters() ExecCounters {
	ctr := e.counters
	ctr.InFlight = len(e.flying)
	for _, st := range e.moves[e.head:] {
		if actionable(st.status) {
			ctr.Pending++
		}
	}
	return ctr
}

// MoveStates returns the per-move state of the current schedule.
func (e *Executor) MoveStates() []MoveView {
	out := make([]MoveView, len(e.moves))
	for i := range e.moves {
		st := &e.moves[i]
		out[i] = MoveView{
			Seq: i, Shard: st.mv.S, From: st.mv.From, To: st.mv.To,
			Status: st.status.String(), Attempts: st.attempts,
		}
		if st.status == MoveInFlight {
			out[i].FinishAt = st.finishAt
		}
	}
	return out
}

// assertTransient checks flying and head against the statuses, then that
// every machine's resident usage plus its in-flight reservation stays
// within capacity. Only called under -tags debugasserts.
func (e *Executor) assertTransient(live *cluster.Placement) {
	air := 0
	for i, st := range e.moves {
		in := st.status == MoveInFlight
		if in != slices.Contains(e.flying, i) || actionable(st.status) && i < e.head {
			panic(fmt.Sprintf("ctl: move %d is %v, flying %v, head %d", i, st.status, e.flying, e.head))
		}
		if in {
			air++
		}
	}
	headOK := e.head == len(e.moves) || actionable(e.moves[e.head].status)
	if air != len(e.flying) || air > e.cfg.Migration.Concurrency || !headOK {
		panic(fmt.Sprintf("ctl: flying %v holds %d in-flight moves, head %d", e.flying, air, e.head))
	}
	for m := range e.c.Machines {
		total := live.Used(cluster.MachineID(m)).Add(e.reservation(cluster.MachineID(m)))
		if !total.LEQ(e.c.Machines[m].Capacity.Add(vec.Uniform(vec.FitEps))) {
			panic(fmt.Sprintf("ctl: machine %d transient usage %v exceeds capacity %v",
				m, total, e.c.Machines[m].Capacity))
		}
	}
}
