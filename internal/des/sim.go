package des

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"rexchange/internal/cluster"
	"rexchange/internal/ctl"
	"rexchange/internal/obs"
	"rexchange/internal/plan"
	"rexchange/internal/rng"
	"rexchange/internal/workload"
)

// Phase classifies a query completion relative to the run's migration
// activity: Before (no copy had started yet), During (a copy overlapped
// the query's lifetime), After (copies have happened, none overlapped).
type Phase int

// Migration phases.
const (
	PhaseBefore Phase = iota
	PhaseDuring
	PhaseAfter
	numPhases
)

// String names the phase; also the metrics label value.
func (p Phase) String() string {
	switch p {
	case PhaseBefore:
		return "before"
	case PhaseDuring:
		return "during"
	case PhaseAfter:
		return "after"
	default:
		return "phase(?)"
	}
}

// Config parameterizes the discrete-event simulator.
type Config struct {
	// Fanout is the number of shard legs sampled per query (weighted by
	// shard popularity, with replacement). 0 defaults to 8.
	Fanout int `json:"fanout"`
	// TargetUtil is the mean machine busy fraction at base trace
	// intensity; it calibrates service times against the cluster's load
	// scale. 0 defaults to 0.6.
	TargetUtil float64 `json:"target_util"`
	// Window is the arrival-generation and latency-measurement window in
	// seconds; align it with the controller's round window. 0 defaults
	// to 10.
	Window float64 `json:"window"`
	// DriftSigma is the per-window lognormal popularity walk applied to
	// shard weights (0 freezes relative popularity; negative is rejected).
	DriftSigma float64 `json:"drift_sigma"`
	// Drag is the fractional service-speed loss on a machine per
	// migration copy streaming off it. 0 defaults to 0.3; negative
	// disables degradation.
	Drag float64 `json:"drag"`
	// CostSigma is the lognormal spread of per-query cost (0 = uniform
	// unit cost; negative is rejected).
	CostSigma float64 `json:"cost_sigma"`
	// MaxQueue caps a machine's queue depth in legs; a query any of
	// whose legs meets a full queue is dropped whole. 0 = unbounded.
	MaxQueue int `json:"max_queue"`
	// TraceSample is the fraction of admitted queries traced end to end
	// (0 disables tracing, 1 traces everything). Sampling draws only
	// from the isolated rng "trace" sub-stream, so any setting leaves
	// offered load and arrival sequences bit-identical.
	TraceSample float64 `json:"trace_sample"`
	// Routing picks the replica that serves each leg of a grouped shard.
	// The zero value, RouteStatic, leaves every leg on its sampled shard;
	// a fleet without replica groups behaves identically under all three.
	Routing Routing `json:"routing"`
	// Seed derives the workload, drift, and chaos sub-streams. Policy
	// and solver randomness live elsewhere, so changing them never
	// perturbs the workload.
	Seed int64 `json:"seed"`
}

// defaultWindow is the Window a zero Config.Window stands for.
const defaultWindow = 10

// DefaultConfig returns the standard simulation parameters.
func DefaultConfig() Config {
	return Config{Fanout: 8, TargetUtil: 0.6, Window: defaultWindow, CostSigma: 0.5, Drag: 0.3, Seed: 1}
}

// normalize fills defaults and validates.
func (cfg *Config) normalize() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"TargetUtil", cfg.TargetUtil}, {"Window", cfg.Window}, {"DriftSigma", cfg.DriftSigma},
		{"Drag", cfg.Drag}, {"CostSigma", cfg.CostSigma}, {"TraceSample", cfg.TraceSample}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("des: %s must be finite, got %g", f.name, f.v)
		}
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = 8
	}
	if cfg.Fanout < 0 {
		return fmt.Errorf("des: Fanout must be positive, got %d", cfg.Fanout)
	}
	if cfg.TargetUtil == 0 {
		cfg.TargetUtil = 0.6
	}
	if cfg.TargetUtil < 0 || cfg.TargetUtil >= 1 {
		return fmt.Errorf("des: TargetUtil must be in (0,1), got %g", cfg.TargetUtil)
	}
	if cfg.Window == 0 {
		cfg.Window = defaultWindow
	}
	if cfg.Window < 0 {
		return fmt.Errorf("des: Window must be positive, got %g", cfg.Window)
	}
	if cfg.DriftSigma < 0 {
		return fmt.Errorf("des: negative drift: DriftSigma must be ≥ 0, got %g", cfg.DriftSigma)
	}
	if cfg.CostSigma < 0 {
		return fmt.Errorf("des: negative cost spread: CostSigma must be ≥ 0, got %g", cfg.CostSigma)
	}
	if cfg.Drag == 0 {
		cfg.Drag = 0.3
	}
	if cfg.Drag < 0 {
		cfg.Drag = 0
	}
	if cfg.Drag >= 1 {
		return fmt.Errorf("des: Drag must be below 1, got %g", cfg.Drag)
	}
	if cfg.MaxQueue < 0 {
		return fmt.Errorf("des: negative MaxQueue %d", cfg.MaxQueue)
	}
	if cfg.TraceSample < 0 || cfg.TraceSample > 1 {
		return fmt.Errorf("des: TraceSample must be in [0,1], got %g", cfg.TraceSample)
	}
	if cfg.Routing < RouteStatic || cfg.Routing > RouteLeastLoaded {
		return fmt.Errorf("des: unknown Routing %d", int(cfg.Routing))
	}
	return nil
}

// query is one in-flight query: its arrival time and outstanding legs.
type query struct {
	arrive float64
	remain int32 //rexlint:nonneg
}

// Sim is the discrete-event cluster simulator. It implements ctl.Clock
// (Sleep advances the event loop to the target time), ctl.LoadSource
// (observed loads are the work actually routed per shard since the last
// snapshot), and ctl.MoveObserver (executor copies degrade their source
// machine and commits reroute subsequent queries) — so the unmodified
// controller, policy, solver, and executor run against simulated query
// traffic.
//
// All methods except Now must be called from the single control-loop
// goroutine; Now is safe for concurrent use (HTTP handlers).
type Sim struct {
	cfg Config
	tr  *workload.Trace

	mu  sync.Mutex
	now float64 // guarded by: mu

	// Routing and popularity state. home is the simulator's own shard →
	// machine map: it re-routes on committed moves only, independent of
	// the controller's planning copies.
	home     []cluster.MachineID
	groupOf  []*replicaGroup // shard → replica group; nil unless legs are routed
	weights  []float64
	cum      []float64 // prefix sums over weights, rebuilt per window
	guide    []int32   // guide[k]: first index whose prefix sum reaches k·total/n
	guideK   float64   // n/total: r·guideK is r's guide bucket
	wtotal   float64   // invariant Σweights, restored after each drift step
	machines []machine

	// window is the pending window boundary (+Inf when none), legs the
	// pending leg completions, and arrivals[next:] the generated arrivals
	// not yet fired, sorted.
	window   float64
	legs     legQueue
	arrivals []float64
	next     int
	qs       []query
	free     []int32

	// workload draws arrivals, costs, and shard picks; drift walks the
	// popularity weights; the partitioned chaos stream is exported for
	// failure injection. Because each is an isolated sub-stream, adding
	// chaos or changing drift never perturbs workload generation.
	streams  *rng.Partitioned
	workload *rand.Rand
	drift    *rand.Rand

	picks []cluster.ShardID // per-arrival scratch, len = Fanout

	legUnit    float64 // Load-seconds per leg per unit cost
	serveScale float64 // service seconds per Load-second on a speed-1 idle machine

	// Migration overlap accounting for phase classification.
	copiesStarted int
	activeCopies  int //rexlint:nonneg
	lastCopyEnd   float64

	// LoadSource accumulators, reset by Next.
	srcLoad []float64
	srcFrom float64

	// Measurement-window accumulators, reset at each window boundary.
	windowIdx    int
	winLat       []float64
	winArrivals  int
	winCompleted int
	winDropped   int

	// Run-long per-phase latency records.
	lat     [numPhases][]float64
	drops   [numPhases]int
	arrived int
	events  uint64

	m       *simMetrics
	journal *obs.Journal

	// tracer samples queries from the isolated "trace" stream; traced
	// holds merge-tracking state per sampled in-flight query, keyed by
	// query slot (entries retire at completion, so slot reuse is safe).
	tracer *obs.Tracer
	traced map[int32]*tracedQuery
}

// New builds a simulator over the given placement and query trace. The
// placement is read once (assignment, machine speeds, shard base loads)
// and never written: the simulator keeps its own routing map and follows
// the live placement through MoveObserver commits.
//
//rexlint:stream workload drift
func New(cfg Config, p *cluster.Placement, tr *workload.Trace) (*Sim, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if p == nil || tr == nil || tr.Duration <= 0 {
		return nil, fmt.Errorf("des: placement and a trace with positive duration are required")
	}
	c := p.Cluster()
	if c.NumShards() == 0 || c.NumMachines() == 0 {
		return nil, fmt.Errorf("des: empty cluster")
	}
	s := &Sim{
		cfg:      cfg,
		tr:       tr,
		home:     p.Assignment(),
		weights:  make([]float64, c.NumShards()),
		cum:      make([]float64, c.NumShards()),
		guide:    make([]int32, c.NumShards()),
		machines: make([]machine, c.NumMachines()),
		streams:  rng.NewPartitioned(cfg.Seed),
		srcLoad:  make([]float64, c.NumShards()),
		m:        newSimMetrics(nil),
		window:   0, // the first boundary opens window 0
	}
	s.workload = s.streams.Stream(rng.StreamWorkload)
	s.drift = s.streams.Stream(rng.StreamDrift)
	s.picks = make([]cluster.ShardID, cfg.Fanout)
	if cfg.Routing != RouteStatic {
		s.groupOf = indexGroups(c.Shards)
	}
	totalSpeed := 0.0
	for i := range s.machines {
		s.machines[i].speed = c.Machines[i].Speed
		totalSpeed += c.Machines[i].Speed
	}
	total := 0.0
	for i := range c.Shards {
		w := c.Shards[i].Load
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("des: shard %d has load %g", i, w)
		}
		s.weights[i] = w
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("des: cluster has no load to simulate")
	}
	for i := range s.home {
		if s.home[i] == cluster.Unassigned {
			return nil, fmt.Errorf("des: shard %d is unassigned", i)
		}
	}
	s.wtotal = total
	rate := tr.Rate()
	if rate <= 0 {
		return nil, fmt.Errorf("des: trace has no arrivals")
	}
	// Calibration: with Fanout popularity-weighted picks per query, a leg
	// carrying legUnit·cost Load-seconds makes the expected routed work
	// rate of shard s equal its base load, so the controller observes the
	// same load scale TraceDriftSource would feed it. serveScale then
	// converts Load-seconds to service seconds such that a machine at the
	// fleet-mean utilization idles (1-TargetUtil) of the time.
	meanCost := math.Exp(cfg.CostSigma * cfg.CostSigma / 2)
	s.legUnit = total / (rate * float64(cfg.Fanout) * meanCost)
	meanUtil := c.TotalLoad() / totalSpeed
	s.serveScale = cfg.TargetUtil / meanUtil
	s.rebuildCum()
	// Until the first window's pops retune it, the leg queue's days are
	// twice the mean gap between completions at the trace's mean rate,
	// and its year has room for one completion per machine.
	s.legs.presize(2/(rate*float64(cfg.Fanout)), len(s.machines))
	return s, nil
}

// AttachObs wires a metric registry and/or JSONL journal (either may be
// nil). Call before the first Sleep. When cfg.TraceSample > 0 this also
// builds the query tracer over the isolated "trace" rng stream; sampled
// spans go to the journal and, with a registry attached, the rex_trace_*
// families count them.
//
//rexlint:stream trace
func (s *Sim) AttachObs(reg *obs.Registry, j *obs.Journal) {
	s.m = newSimMetrics(reg)
	s.journal = j
	if s.cfg.TraceSample > 0 {
		s.tracer = obs.NewTracer(s.streams.Stream(rng.StreamTrace), s.cfg.TraceSample, j)
		s.tracer.AttachMetrics(reg)
		s.traced = make(map[int32]*tracedQuery)
	}
}

// Tracer returns the query tracer, nil unless AttachObs ran with
// cfg.TraceSample > 0. Campaign wiring hands it to ctl.Config.Tracer so
// controller and executor spans land in the same journal.
func (s *Sim) Tracer() *obs.Tracer { return s.tracer }

// Chaos returns the dedicated chaos sub-stream, for wiring deterministic
// copy-failure injection into ctl.ExecConfig.Failure without perturbing
// workload generation.
//
//rexlint:stream chaos
func (s *Sim) Chaos() *rand.Rand { return s.streams.Stream(rng.StreamChaos) }

// Now returns the current simulated time. Safe for concurrent use: the
// clock is published when a Sleep returns, so another goroutine reading it
// during a Sleep sees the time that Sleep started from.
func (s *Sim) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// setNow publishes the clock position.
func (s *Sim) setNow(t float64) {
	s.mu.Lock()
	s.now = t
	s.mu.Unlock()
}

// Sleep advances simulated time by d seconds, running every event that
// falls strictly before the target; events scheduled exactly at the
// target run at the start of the next advance, so a load snapshot taken
// at a window boundary never sees the next window's arrivals. Each step
// fires the earliest of the pending window boundary, the cursor's arrival
// and the earliest leg completion, ties broken in Kind order. A target
// that is not finite advances nothing: no event would ever reach it.
func (s *Sim) Sleep(d float64) {
	target := s.Now() + d
	if !(d > 0) || math.IsInf(target, 0) {
		return
	}
	for {
		at, kind := s.window, KindWindow
		if s.next < len(s.arrivals) && s.arrivals[s.next] < at {
			at, kind = s.arrivals[s.next], KindArrival
		}
		if t := s.legs.MinAt(); t < at {
			at, kind = t, KindLegDone
		}
		if at >= target {
			break
		}
		s.events++
		switch kind {
		case KindWindow:
			s.windowEvent(at)
		case KindArrival:
			s.next++
			s.arrivalEvent(at)
		case KindLegDone:
			_, mi := s.legs.Pop()
			s.legDoneEvent(at, mi)
		}
	}
	s.setNow(target)
	s.m.syncLow(s)
}

// Next implements ctl.LoadSource: per-shard work routed since the last
// snapshot, as a rate in cluster Load units. The simulator must have
// been advanced to t1 (ctl.Controller.Run sleeps to the window end before
// every snapshot).
func (s *Sim) Next(t0, t1 float64) ([]float64, error) {
	if t1 <= t0 {
		return nil, fmt.Errorf("des: load window [%g,%g) is inverted", t0, t1)
	}
	span := t1 - s.srcFrom
	if span <= 0 {
		span = t1 - t0
	}
	out := make([]float64, len(s.srcLoad))
	for i, w := range s.srcLoad {
		out[i] = w / span
		s.srcLoad[i] = 0
	}
	s.srcFrom = t1
	return out, nil
}

// MoveStarted implements ctl.MoveObserver: an outbound copy starts
// degrading its source machine, and its identity joins the machine's
// blame candidates.
func (s *Sim) MoveStarted(mv plan.Move, ref ctl.MoveRef, at, eta float64) {
	s.machines[mv.From].addRef(ref)
	s.copiesStarted++
	s.activeCopies++
	s.m.copiesActive.Set(float64(s.activeCopies))
}

// MoveFinished implements ctl.MoveObserver: the copy's degradation ends,
// and a committed move re-routes the shard's future queries.
func (s *Sim) MoveFinished(mv plan.Move, ref ctl.MoveRef, at float64, committed bool) {
	s.machines[mv.From].dropRef(ref)
	//rexlint:ignore nonneg every MoveFinished pairs with a prior MoveStarted on the single observer goroutine
	s.activeCopies--
	if cluster.DebugAsserts {
		assertNonneg("Sim.activeCopies", s.activeCopies)
	}
	if at > s.lastCopyEnd {
		s.lastCopyEnd = at
	}
	if committed {
		s.home[mv.S] = mv.To
	}
	s.m.copiesActive.Set(float64(s.activeCopies))
}

// windowEvent closes the measurement window ending at t, applies one
// popularity-drift step, and generates the next window's arrivals.
func (s *Sim) windowEvent(t float64) {
	s.legs.retune(t)
	if s.windowIdx > 0 {
		s.closeWindow(t)
	}
	if s.cfg.DriftSigma > 0 && s.windowIdx > 0 {
		s.driftStep()
	}
	// An arrival still pending lies exactly on this boundary (it orders
	// after the window), and every new one at or after it: appending keeps
	// the slice sorted and equal times in generation order.
	pending := copy(s.arrivals, s.arrivals[s.next:])
	s.arrivals = append(s.arrivals[:pending], s.tr.Arrivals(t, t+s.cfg.Window, s.workload)...)
	s.next = 0
	s.windowIdx++
	s.window = t + s.cfg.Window
}

// closeWindow publishes the window's latency summary to the journal.
func (s *Sim) closeWindow(t float64) {
	if s.journal != nil {
		q := stats3(s.winLat)
		s.journal.Emit(obs.Event{
			T: t, Span: obs.SpanSim, Phase: obs.PhaseEnd, Round: s.windowIdx - 1,
			Sim: &obs.SimEvent{
				Window: s.windowIdx - 1, Arrivals: s.winArrivals,
				Completed: s.winCompleted, Dropped: s.winDropped,
				P50: q[0], P99: q[1], P999: q[2], Copies: s.activeCopies,
			},
		})
	}
	s.winLat = s.winLat[:0]
	s.winArrivals, s.winCompleted, s.winDropped = 0, 0, 0
}

// driftStep walks every shard weight by a lognormal factor and
// renormalizes so total popularity stays put while shares shift. It is
// not the drift ctl.TraceDriftSource applies (workload.PerturbLoads): no
// per-shard load cap is re-applied after the step, so one shard can
// outgrow a machine, and every shard walks on its own, so replicas of a
// logical shard do not move together. Unifying the two models is the "One
// drift physics" step of ROADMAP's "Make the loop the default" item,
// deferred on purpose because it changes every drifted journal.
func (s *Sim) driftStep() {
	r := s.drift
	total := 0.0
	for i := range s.weights {
		s.weights[i] *= math.Exp(s.cfg.DriftSigma * r.NormFloat64())
		total += s.weights[i]
	}
	if total > 0 {
		scale := s.wtotal / total
		for i := range s.weights {
			s.weights[i] *= scale
		}
	}
	s.rebuildCum()
}

// rebuildCum refreshes the prefix sums used for weighted shard sampling
// and the guide table over them.
func (s *Sim) rebuildCum() {
	acc := 0.0
	for i, w := range s.weights {
		acc += w
		s.cum[i] = acc
	}
	n := len(s.cum)
	s.guideK = float64(n) / acc
	j := 0
	for k := range s.guide {
		for j < n-1 && s.cum[j] < float64(k)*acc/float64(n) {
			j++
		}
		s.guide[k] = int32(j)
	}
}

// pickShard samples one shard proportional to current popularity: the
// first index whose prefix sum reaches r, as sort.SearchFloat64s would
// find it. The walk starts at r's guide entry and steps back or forward
// to that index, an expected O(1) steps.
func (s *Sim) pickShard() cluster.ShardID {
	total := s.cum[len(s.cum)-1]
	r := s.workload.Float64() * total
	k := int(r * s.guideK)
	if uint(k) >= uint(len(s.guide)) { // r·guideK can round up to n
		k = len(s.guide) - 1
	}
	i := int(s.guide[k])
	for i > 0 && s.cum[i-1] >= r {
		i--
	}
	for s.cum[i] < r {
		i++
	}
	return cluster.ShardID(i)
}

// arrivalEvent fans one query out to Fanout sampled shard legs. The cost
// and shard picks come from the workload stream in arrival order, so the
// draw sequence is independent of queueing and policy dynamics.
func (s *Sim) arrivalEvent(t float64) {
	cost := 1.0
	if s.cfg.CostSigma > 0 {
		cost = workload.LogNormal(s.workload, 0, s.cfg.CostSigma)
	}
	picks := s.picks
	for i := range picks {
		picks[i] = s.pickShard()
	}
	if s.groupOf != nil {
		// Replica routing replaces each pick before anything observes it,
		// so load, admission, and tracing all see the serving replica.
		for i, sh := range picks {
			picks[i] = s.route(sh)
		}
	}
	work := s.legUnit * cost
	s.arrived++
	s.winArrivals++

	// Offered load is observed whether or not the query admits — the
	// controller must see the hot shard even while its machine sheds.
	for _, sh := range picks {
		s.srcLoad[sh] += work
	}

	if s.cfg.MaxQueue > 0 {
		for _, sh := range picks {
			if s.machines[s.home[sh]].depth() >= s.cfg.MaxQueue {
				s.drop(t)
				return
			}
		}
	}
	qi := s.allocQuery(t, int32(len(picks)))
	// Sampling happens after admission, from the isolated trace stream:
	// only queries that will complete (or die with the run) are traced,
	// and the decision can never perturb the workload draws above.
	var tq *tracedQuery
	if id, ok := s.tracer.Sample(); ok {
		tq = s.traceQuery(qi, id)
	}
	for i, sh := range picks {
		mi := s.home[sh]
		m := &s.machines[mi]
		var lt *legTrace
		if tq != nil {
			lt = s.traceEnqueue(tq, i, int(sh), int(mi), t, m)
		}
		m.push(leg{q: qi, work: work, tr: lt})
		if m.depth() == 1 {
			s.startService(t, int32(mi))
		}
	}
}

// drop records a whole-query drop in the phase it would have completed.
func (s *Sim) drop(t float64) {
	ph := s.classify(t)
	s.drops[ph]++
	s.winDropped++
	s.m.dropped.Inc()
}

// allocQuery takes a query slot from the free list or grows the table.
func (s *Sim) allocQuery(t float64, legs int32) int32 {
	if n := len(s.free); n > 0 {
		qi := s.free[n-1]
		s.free = s.free[:n-1]
		s.qs[qi] = query{arrive: t, remain: legs}
		return qi
	}
	s.qs = append(s.qs, query{arrive: t, remain: legs})
	return int32(len(s.qs) - 1)
}

// startService begins serving the head leg of machine mi and schedules
// its completion at the current effective speed. Degradation applies at
// leg start: a copy that begins mid-service does not preempt.
func (s *Sim) startService(t float64, mi int32) {
	m := &s.machines[mi]
	l := m.front()
	eff := m.effectiveSpeed(s.cfg.Drag)
	if l.tr != nil {
		l.tr.svcAt = t
		l.tr.effSvc = eff
		l.tr.copiesSvc = len(m.refs)
		if ref, ok := m.oldestRef(); ok {
			l.tr.refSvc = ref
		}
	}
	service := l.work * s.serveScale / eff
	m.busy += service
	m.busyUntil = t + service
	s.legs.Push(t+service, mi)
}

// legDoneEvent completes the head leg of machine m, merges it into its
// query, and starts the next queued leg.
func (s *Sim) legDoneEvent(t float64, mi int32) {
	m := &s.machines[mi]
	l := m.pop()
	if l.tr != nil {
		s.traceLegDone(t, &l, m)
	}
	q := &s.qs[l.q]
	//rexlint:ignore nonneg remain was set to the leg count at arrival, and each leg completes once: the leg queue holds one completion per startService, and pop removes the leg that completion ends
	q.remain--
	if cluster.DebugAsserts {
		assertNonneg("query.remain", int(q.remain))
	}
	if q.remain == 0 {
		s.complete(t, l.q)
	}
	if m.depth() > 0 {
		s.startService(t, mi)
	}
}

// complete records the query's end-to-end latency (merge at the slowest
// leg) under its migration phase and frees the slot.
func (s *Sim) complete(t float64, qi int32) {
	q := &s.qs[qi]
	latency := t - q.arrive
	ph := s.classify(q.arrive)
	s.lat[ph] = append(s.lat[ph], latency)
	s.winLat = append(s.winLat, latency)
	s.winCompleted++
	s.free = append(s.free, qi)
	tq := s.traced[qi]
	if tq != nil {
		s.traceComplete(t, qi, tq, q.arrive, ph)
	}
	if tq != nil {
		s.m.observeTraced(ph, latency, tq.id)
	} else {
		s.m.observe(ph, latency)
	}
}

// classify assigns a migration phase to a query that arrived at `arrive`
// and is ending now: During when any copy overlapped its lifetime.
func (s *Sim) classify(arrive float64) Phase {
	switch {
	case s.copiesStarted == 0:
		return PhaseBefore
	case s.activeCopies > 0 || s.lastCopyEnd >= arrive:
		return PhaseDuring
	default:
		return PhaseAfter
	}
}

// Busy returns every machine's busy fraction over [0, Now()], indexed by
// MachineID. A machine serves one leg at a time and busy time accrues per
// leg at service start, so the part of the running leg that lies beyond
// now is taken back: every fraction is in [0,1].
func (s *Sim) Busy() []float64 {
	now := s.Now()
	out := make([]float64, len(s.machines))
	if now <= 0 {
		return out
	}
	for i := range s.machines {
		m := &s.machines[i]
		out[i] = (m.busy - math.Max(0, m.busyUntil-now)) / now
	}
	return out
}

// InFlight returns the number of queries currently outstanding.
func (s *Sim) InFlight() int { return len(s.qs) - len(s.free) }
