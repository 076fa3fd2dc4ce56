package des

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"rexchange/internal/cluster"
	"rexchange/internal/ctl"
	"rexchange/internal/obs"
	"rexchange/internal/plan"
	"rexchange/internal/rng"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

// The simulator is the control plane's clock, load feed, and migration
// observer all at once.
var (
	_ ctl.Clock        = (*Sim)(nil)
	_ ctl.LoadSource   = (*Sim)(nil)
	_ ctl.MoveObserver = (*Sim)(nil)
)

// bareSim builds a simulator shell with unit calibration and no scheduled
// events (no window boundary either), for white-box queueing tests:
// legUnit=1, serveScale=1, so a leg's work is its service time on a
// speed-1 idle machine.
func bareSim(speeds []float64, shards int) *Sim {
	s := &Sim{
		cfg:      Config{Fanout: 1, TargetUtil: 0.5, Window: 10, Drag: 0.3},
		window:   math.Inf(1),
		home:     make([]cluster.MachineID, shards),
		weights:  make([]float64, shards),
		cum:      make([]float64, shards),
		guide:    make([]int32, shards),
		machines: make([]machine, len(speeds)),
		streams:  rng.NewPartitioned(1),
		srcLoad:  make([]float64, shards),
		picks:    make([]cluster.ShardID, 1),
		m:        newSimMetrics(nil),

		legUnit:    1,
		serveScale: 1,
	}
	for i := range s.machines {
		s.machines[i].speed = speeds[i]
	}
	for i := range s.weights {
		s.weights[i] = 1
	}
	s.wtotal = float64(shards)
	s.rebuildCum()
	return s
}

// enqueue pushes a leg for query qi on machine mi at time t, starting
// service if the machine was idle — the arrivalEvent fan-out step,
// without the randomized shard sampling.
func enqueue(s *Sim, t float64, qi int32, mi int32, work float64) {
	m := &s.machines[mi]
	m.push(leg{q: qi, work: work})
	if m.depth() == 1 {
		s.startService(t, mi)
	}
}

// TestSleepNonFiniteTarget: a NaN or infinite advance returns at once,
// fires nothing and leaves the clock where it was, where the loop would
// otherwise run window boundaries forever; a finite advance after it
// still runs. The trace has no intensity, so a regression spins without
// growing, and the timeout names it.
func TestSleepNonFiniteTarget(t *testing.T) {
	s := bareSim([]float64{1}, 1)
	s.tr = &workload.Trace{Duration: 10}
	s.workload = s.streams.Stream(rng.StreamWorkload)
	s.window = 0
	enqueue(s, 0, s.allocQuery(0, 1), 0, 5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s.Sleep(d)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Sleep with a non-finite advance did not return")
	}
	if s.events != 0 || s.Now() != 0 {
		t.Fatalf("non-finite advances fired %d events and moved the clock to %g", s.events, s.Now())
	}
	s.Sleep(6)
	if s.Now() != 6 || len(s.lat[PhaseBefore]) != 1 {
		t.Fatalf("Sleep(6) after them: clock %g, %d completions, want 6 and 1", s.Now(), len(s.lat[PhaseBefore]))
	}
}

func TestLegFIFO(t *testing.T) {
	s := bareSim([]float64{1}, 1)
	q0 := s.allocQuery(0, 1)
	q1 := s.allocQuery(0, 1)
	q2 := s.allocQuery(0, 1)
	enqueue(s, 0, q0, 0, 1)
	enqueue(s, 0, q1, 0, 2)
	enqueue(s, 0, q2, 0, 3)
	s.Sleep(10)
	lat := s.lat[PhaseBefore]
	if len(lat) != 3 {
		t.Fatalf("completed %d queries, want 3", len(lat))
	}
	// FIFO at speed 1: completions at 1, 3, 6.
	want := []float64{1, 3, 6}
	for i, w := range want {
		if math.Abs(lat[i]-w) > 1e-12 {
			t.Fatalf("latency[%d] = %g, want %g", i, lat[i], w)
		}
	}
	if s.InFlight() != 0 {
		t.Fatalf("in flight = %d, want 0", s.InFlight())
	}
}

func TestMergeAtSlowestLeg(t *testing.T) {
	s := bareSim([]float64{1, 1}, 2)
	qi := s.allocQuery(0, 2)
	enqueue(s, 0, qi, 0, 1)
	enqueue(s, 0, qi, 1, 5)
	s.Sleep(3)
	if got := len(s.lat[PhaseBefore]); got != 0 {
		t.Fatalf("query completed after fast leg only (%d records)", got)
	}
	s.Sleep(7)
	lat := s.lat[PhaseBefore]
	if len(lat) != 1 || math.Abs(lat[0]-5) > 1e-12 {
		t.Fatalf("latency = %v, want [5] (merge at slowest leg)", lat)
	}
}

func TestMachineSpeedScalesService(t *testing.T) {
	s := bareSim([]float64{4}, 1)
	qi := s.allocQuery(0, 1)
	enqueue(s, 0, qi, 0, 2)
	s.Sleep(1)
	lat := s.lat[PhaseBefore]
	if len(lat) != 1 || math.Abs(lat[0]-0.5) > 1e-12 {
		t.Fatalf("latency = %v, want [0.5] (work 2 at speed 4)", lat)
	}
}

// TestMigrationDegradesSource: a copy in flight slows legs started while
// it streams; legs already in service keep their scheduled completion.
func TestMigrationDegradesSource(t *testing.T) {
	s := bareSim([]float64{1}, 1)
	mv := plan.Move{S: 0, From: 0, To: 0}

	q0 := s.allocQuery(0, 1)
	enqueue(s, 0, q0, 0, 1) // service scheduled at full speed: done at 1
	s.MoveStarted(mv, ctl.MoveRef{}, 0.5, 10)
	s.Sleep(2)
	// The copy overlapped the query's lifetime, so it lands in "during" —
	// but its in-flight service was not rescheduled.
	if lat := s.lat[PhaseDuring]; len(lat) != 1 || math.Abs(lat[0]-1) > 1e-12 {
		t.Fatalf("in-service leg rescheduled by copy: lat = %v, want [1]", lat)
	}

	// A leg started during the copy serves at speed·(1-drag) = 0.7.
	q1 := s.allocQuery(2, 1)
	enqueue(s, 2, q1, 0, 1)
	s.Sleep(3)
	lat := s.lat[PhaseDuring]
	if len(lat) != 2 || math.Abs(lat[1]-1/0.7) > 1e-9 {
		t.Fatalf("degraded latency = %v, want second entry %g", lat, 1/0.7)
	}

	// After the copy ends, full speed returns.
	s.MoveFinished(mv, ctl.MoveRef{}, 5, false)
	q2 := s.allocQuery(6, 1)
	enqueue(s, 6, q2, 0, 1)
	s.Sleep(3)
	if lat := s.lat[PhaseAfter]; len(lat) != 1 || math.Abs(lat[0]-1) > 1e-12 {
		t.Fatalf("post-copy latency = %v, want [1]", lat)
	}
}

// TestCommittedMoveReroutes: only committed moves change the simulator's
// routing; aborted copies leave the shard home.
func TestCommittedMoveReroutes(t *testing.T) {
	s := bareSim([]float64{1, 1}, 2)
	mv := plan.Move{S: 1, From: 0, To: 1}
	s.MoveStarted(mv, ctl.MoveRef{}, 0, 1)
	s.MoveFinished(mv, ctl.MoveRef{}, 1, false)
	if s.home[1] != 0 {
		t.Fatalf("aborted copy moved shard: home = %d", s.home[1])
	}
	s.MoveStarted(mv, ctl.MoveRef{}, 2, 3)
	s.MoveFinished(mv, ctl.MoveRef{}, 3, true)
	if s.home[1] != 1 {
		t.Fatalf("committed move did not reroute: home = %d", s.home[1])
	}
}

// TestPhaseClassification pins the before/during/after rules.
func TestPhaseClassification(t *testing.T) {
	s := bareSim([]float64{1}, 1)
	if ph := s.classify(0); ph != PhaseBefore {
		t.Fatalf("no copies yet: %v, want before", ph)
	}
	mv := plan.Move{S: 0, From: 0, To: 0}
	s.MoveStarted(mv, ctl.MoveRef{}, 1, 2)
	if ph := s.classify(0.5); ph != PhaseDuring {
		t.Fatalf("copy active: %v, want during", ph)
	}
	s.MoveFinished(mv, ctl.MoveRef{}, 2, true)
	// Arrived before the copy ended → overlapped → during.
	if ph := s.classify(1.5); ph != PhaseDuring {
		t.Fatalf("overlapped finished copy: %v, want during", ph)
	}
	// Arrived after every copy ended → after.
	if ph := s.classify(3); ph != PhaseAfter {
		t.Fatalf("post-campaign arrival: %v, want after", ph)
	}
}

// flatCluster builds n machines of speed 1 hosting n shards (one each)
// with the given shard loads.
func flatCluster(t *testing.T, loads []float64) *cluster.Placement {
	t.Helper()
	c := &cluster.Cluster{}
	assign := make([]cluster.MachineID, len(loads))
	for i, l := range loads {
		c.Machines = append(c.Machines, cluster.Machine{
			ID: cluster.MachineID(i), Capacity: vec.Uniform(100), Speed: 1,
		})
		c.Shards = append(c.Shards, cluster.Shard{
			ID: cluster.ShardID(i), Static: vec.Uniform(1), Load: l,
		})
		assign[i] = cluster.MachineID(i)
	}
	p, err := cluster.FromAssignment(c, assign)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// flatSimTrace is a deterministic constant-rate trace.
func flatSimTrace(rate int, duration float64) *workload.Trace {
	tr := &workload.Trace{Duration: duration}
	for w := 0.0; w < duration; w++ {
		for i := 0; i < rate; i++ {
			tr.Queries = append(tr.Queries, workload.Query{At: w + (float64(i)+0.5)/float64(rate), Cost: 1})
		}
	}
	return tr
}

// TestLoadMeasurement: the measured loads track shard popularity on the
// cluster's Load scale — a zero-weight shard observes zero, totals match
// the base load within Poisson noise.
func TestLoadMeasurement(t *testing.T) {
	loads := []float64{4, 2, 2, 0}
	p := flatCluster(t, loads)
	cfg := DefaultConfig()
	cfg.Fanout = 2
	cfg.Window = 5
	cfg.CostSigma = 0 // unit costs: measurement noise is Poisson only
	tr := flatSimTrace(400, 20)
	s, err := New(cfg, p, tr)
	if err != nil {
		t.Fatal(err)
	}
	s.Sleep(5)
	got, err := s.Next(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got[3] > 0 {
		t.Fatalf("zero-weight shard measured load %g", got[3])
	}
	total := got[0] + got[1] + got[2]
	if total < 6 || total > 10 {
		t.Fatalf("total measured load %g, want ≈8", total)
	}
	if got[0] < got[1] {
		t.Fatalf("popular shard measured below cold shard: %v", got)
	}
	// A second snapshot covers only its own window (accumulators reset).
	s.Sleep(5)
	got2, err := s.Next(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	t2 := got2[0] + got2[1] + got2[2]
	if t2 < 6 || t2 > 10 {
		t.Fatalf("second window total %g, want ≈8 (accumulator leak?)", t2)
	}
}

// TestQueueCapDropsWholeQueries: a full machine queue drops arrivals
// whole and counts them.
func TestQueueCapDropsWholeQueries(t *testing.T) {
	p := flatCluster(t, []float64{1})
	cfg := DefaultConfig()
	cfg.Fanout = 1
	cfg.Window = 5
	cfg.MaxQueue = 2
	cfg.TargetUtil = 0.99 // saturate: the queue must overflow
	tr := flatSimTrace(500, 10)
	s, err := New(cfg, p, tr)
	if err != nil {
		t.Fatal(err)
	}
	s.Sleep(10)
	if s.drops[PhaseBefore] == 0 {
		t.Fatal("saturated single machine with MaxQueue=2 never dropped")
	}
	if s.machines[0].depth() > 2 {
		t.Fatalf("queue depth %d exceeds cap 2", s.machines[0].depth())
	}
	rep := s.Report()
	if rep.Before.Dropped != s.drops[PhaseBefore] {
		t.Fatalf("report drops %d != %d", rep.Before.Dropped, s.drops[PhaseBefore])
	}
}

// TestSimDeterministicReport: the same configuration renders a
// byte-identical report across GOMAXPROCS=1 and GOMAXPROCS=8 — the
// controller's parallel solves run inside, so this certifies the whole
// stack's reproducibility, not just the event loop's.
func TestSimDeterministicReport(t *testing.T) {
	run := func(procs int) string {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		cfg := DefaultCampaignConfig()
		cfg.Machines, cfg.Shards, cfg.Rounds = 16, 160, 5
		cfg.Rate, cfg.Iterations = 60, 120
		cfg.Sim.Window = 5
		cfg.Sim.DriftSigma = 0.4
		res, err := RunCampaign(cfg, "solve")
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.Render()
	}
	a := run(1)
	b := run(8)
	if a != b {
		t.Fatalf("report differs across GOMAXPROCS:\n--- 1 ---\n%s--- 8 ---\n%s", a, b)
	}
}

// TestRunCampaignRejectsBadConfig: a campaign without rounds would run the
// controller "until Stop", which nothing calls offline, and a negative
// drift would silently freeze the fleet — both fail up front instead.
func TestRunCampaignRejectsBadConfig(t *testing.T) {
	cfg := DefaultCampaignConfig()
	cfg.Machines, cfg.Shards = 10, 60
	noRounds := cfg
	noRounds.Rounds = 0
	done := make(chan error, 1)
	go func() {
		_, err := RunCampaign(noRounds, "solve")
		done <- err
	}()
	select {
	case err := <-done:
		if want := "des: campaign needs Rounds > 0, got 0"; err == nil || err.Error() != want {
			t.Errorf("Rounds 0: err = %v, want %q", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunCampaign with Rounds 0 did not return")
	}

	negDrift := cfg
	negDrift.Rounds = 2
	negDrift.Sim.DriftSigma = -1
	if _, err := RunCampaign(negDrift, "solve"); err == nil || !strings.Contains(err.Error(), "negative drift") {
		t.Errorf("DriftSigma -1: err = %v, want a negative-drift error", err)
	}
}

// TestRunCampaignDefaultWindow: a zero Sim.Window stands for the default
// window in the trace, the simulator and the controller alike, so the
// campaign renders the report of an explicit Window of 10. A negative or
// non-finite window is refused by name, not blamed on the trace.
func TestRunCampaignDefaultWindow(t *testing.T) {
	run := func(window float64) (string, error) {
		cfg := DefaultCampaignConfig()
		cfg.Machines, cfg.Shards, cfg.Rounds = 16, 160, 3
		cfg.Rate, cfg.Iterations = 60, 120
		cfg.Sim.Window = window
		cfg.Sim.DriftSigma = 0.4
		res, err := RunCampaign(cfg, "solve")
		if err != nil {
			return "", err
		}
		return res.Report.Render(), nil
	}
	want, err := run(10)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := run(0); err != nil || got != want {
		t.Fatalf("Window 0: err = %v, report differs from Window 10:\n--- 0 ---\n%s--- 10 ---\n%s", err, got, want)
	}
	for _, w := range []float64{-5, math.NaN(), math.Inf(1)} {
		if _, err := run(w); err == nil || !strings.Contains(err.Error(), "Window must be positive") {
			t.Errorf("Window %g: err = %v, want a named Window error", w, err)
		}
	}
}

// TestCampaignEndToEnd: a drifting campaign triggers solves, migrations
// degrade and then relieve the fleet, and all three phases see traffic.
func TestCampaignEndToEnd(t *testing.T) {
	cfg := DefaultCampaignConfig()
	cfg.Machines, cfg.Shards, cfg.Rounds = 16, 160, 8
	cfg.Rate, cfg.Iterations = 60, 120
	cfg.Sim.Window = 5
	cfg.Sim.DriftSigma = 0.4
	res, err := RunCampaign(cfg, "solve")
	if err != nil {
		t.Fatal(err)
	}
	if res.Solves == 0 || res.Moves == 0 {
		t.Fatalf("campaign never migrated: %+v", res)
	}
	if res.Report.Before.Queries == 0 || res.Report.During.Queries == 0 {
		t.Fatalf("phase accounting empty: %+v", res.Report)
	}

	base, err := RunCampaign(cfg, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if base.Solves != 0 || base.Moves != 0 {
		t.Fatalf("baseline migrated: %+v", base)
	}
	if base.Report.During.Queries != 0 || base.Report.After.Queries != 0 {
		t.Fatalf("baseline saw non-before phases: %+v", base.Report)
	}
	// The solve run drains its last migration past the baseline's end
	// time, so it can only have generated at least as many arrivals.
	if res.Report.Arrivals < base.Report.Arrivals {
		t.Fatalf("solve run generated fewer arrivals (%d) than baseline (%d)",
			res.Report.Arrivals, base.Report.Arrivals)
	}
}

// TestProductionMetricsRegister mounts the simulator, with tracing on,
// under a controller on one registry, as RunCampaign does. That reaches
// every metric registration site in the module: ctl's families, its
// collector and solver recorder, the simulator's and the tracer's. None
// may panic on the registry's name rule, and the family count says no
// site was skipped. A new family raises it. The exposition renders only
// families with a series, so the count is taken after one round whose
// trigger always fires: the solver's per-operator vector gains its series
// in that solve. Before and after, the exposition must pass the project's
// own lint — a scrape before the first solve included.
func TestProductionMetricsRegister(t *testing.T) {
	const families = 48
	p := flatCluster(t, []float64{1, 1})
	cfg := DefaultConfig()
	cfg.TraceSample = 0.5
	s, err := New(cfg, p, flatSimTrace(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.AttachObs(reg, nil)
	ccfg := ctl.DefaultConfig()
	ccfg.Registry = reg
	ccfg.Window = cfg.Window
	ccfg.Policy = ctl.Policy{HighWater: 1, LowWater: 1}
	ccfg.Budget.Iterations = 20
	c, err := ctl.New(ccfg, s, p, s)
	if err != nil {
		t.Fatal(err)
	}
	scrape := func(when string) string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if problems := obs.LintExposition(strings.NewReader(b.String())); len(problems) > 0 {
			t.Fatalf("exposition %s fails its lint:\n%s", when, strings.Join(problems, "\n"))
		}
		return b.String()
	}
	scrape("before the first solve")
	if err := c.Run(1); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.Solves != 1 {
		t.Fatalf("%d solves, want 1", st.Solves)
	}
	if got := strings.Count(scrape("after one solve"), "\n# TYPE "); got != families {
		t.Fatalf("%d metric families registered, want %d", got, families)
	}
}

// TestPolicyCannotPerturbWorkload: migrations, chaos draws, and trace
// sampling touch the simulator's routing, chaos, and trace streams only —
// the arrival process and shard picks come from the isolated workload
// stream, so sims with wildly different policy and observability activity
// observe identical offered load.
func TestPolicyCannotPerturbWorkload(t *testing.T) {
	mk := func(traceSample float64) *Sim {
		p := flatCluster(t, []float64{4, 2, 2, 1})
		cfg := DefaultConfig()
		cfg.Fanout = 2
		cfg.Window = 5
		cfg.DriftSigma = 0.3
		cfg.TraceSample = traceSample
		s, err := New(cfg, p, flatSimTrace(100, 20))
		if err != nil {
			t.Fatal(err)
		}
		if traceSample > 0 {
			// Activate the tracer; a nil journal discards the spans but
			// the sampler still draws per arrival.
			s.AttachObs(nil, nil)
		}
		return s
	}
	quiet, busy := mk(0), mk(0)
	traced := mk(1)

	// The busy sim sees migrations and burns chaos randomness mid-run.
	mv := plan.Move{S: 0, From: 0, To: 3}
	busy.Sleep(3)
	busy.MoveStarted(mv, ctl.MoveRef{Round: 1, Seq: 0}, 3, 6)
	busy.Chaos().Float64()
	busy.Sleep(4)
	busy.MoveFinished(mv, ctl.MoveRef{Round: 1, Seq: 0}, 7, true)
	busy.Chaos().Float64()
	busy.Sleep(3)
	quiet.Sleep(10)
	// The traced sim samples every query end-to-end.
	traced.Sleep(10)

	if quiet.arrived != busy.arrived {
		t.Fatalf("arrival counts diverged: quiet %d, busy %d", quiet.arrived, busy.arrived)
	}
	if quiet.arrived != traced.arrived {
		t.Fatalf("trace sampling perturbed arrivals: quiet %d, traced %d", quiet.arrived, traced.arrived)
	}
	if traced.tracer == nil || !traced.tracer.Enabled() {
		t.Fatal("traced sim never activated its tracer")
	}
	a, err := quiet.Next(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := busy.Next(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	c, err := traced.Next(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offered load diverged at shard %d: %g vs %g", i, a[i], b[i])
		}
		if a[i] != c[i] {
			t.Fatalf("trace sampling perturbed offered load at shard %d: %g vs %g", i, a[i], c[i])
		}
	}
}
