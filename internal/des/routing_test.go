package des

import (
	"math"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/stats"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

// fleet builds speed-1 machines and the given shards at the given homes.
func fleet(t *testing.T, machines int, shards []cluster.Shard, homes []cluster.MachineID) *cluster.Placement {
	t.Helper()
	c := &cluster.Cluster{}
	for m := 0; m < machines; m++ {
		c.Machines = append(c.Machines, cluster.Machine{
			ID: cluster.MachineID(m), Capacity: vec.Uniform(100), Speed: 1,
		})
	}
	for i, sh := range shards {
		sh.ID = cluster.ShardID(i)
		sh.Static = vec.Uniform(1)
		c.Shards = append(c.Shards, sh)
	}
	p, err := cluster.FromAssignment(c, homes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// replicatedFleet: two machines, one logical shard (group 1) with a
// replica on each, plus an ungrouped shard on machine 0. The replicas
// carry unequal popularity so static and routed shares differ.
func replicatedFleet(t *testing.T) *cluster.Placement {
	return fleet(t, 2, []cluster.Shard{
		{Load: 8, Group: 1},
		{Load: 2, Group: 1},
		{Load: 2},
	}, []cluster.MachineID{0, 1, 0})
}

// serve runs cfg over p for the whole trace.
func serve(t *testing.T, cfg Config, p *cluster.Placement, tr *workload.Trace) *Sim {
	t.Helper()
	s, err := New(cfg, p, tr)
	if err != nil {
		t.Fatal(err)
	}
	s.Sleep(tr.Duration)
	return s
}

func routedConfig(r Routing) Config {
	return Config{Fanout: 2, TargetUtil: 0.5, Window: 5, CostSigma: 0.2, Seed: 17, Routing: r}
}

func TestRoutingString(t *testing.T) {
	for r, want := range map[Routing]string{
		RouteStatic: "static", RouteRoundRobin: "round-robin",
		RouteLeastLoaded: "least-loaded", Routing(9): "routing(?)",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", int(r), r.String())
		}
	}
}

// TestNewValidation: New names what is wrong with its inputs instead of
// simulating nonsense.
func TestNewValidation(t *testing.T) {
	p, tr := replicatedFleet(t), flatSimTrace(10, 5)
	unplaced := cluster.NewPlacement(p.Cluster())
	idle := fleet(t, 1, []cluster.Shard{{Load: 0}}, []cluster.MachineID{0})
	for name, tc := range map[string]struct {
		cfg Config
		p   *cluster.Placement
		tr  *workload.Trace
	}{
		"unknown routing":     {Config{Routing: Routing(9)}, p, tr},
		"saturating util":     {Config{TargetUtil: 1}, p, tr},
		"negative fanout":     {Config{Fanout: -1}, p, tr},
		"nil placement":       {Config{}, nil, tr},
		"trace without span":  {Config{}, p, &workload.Trace{}},
		"trace without query": {Config{}, p, &workload.Trace{Duration: 5}},
		"unassigned shard":    {Config{}, unplaced, tr},
		"no load":             {Config{}, idle, tr},
	} {
		if _, err := New(tc.cfg, tc.p, tc.tr); err == nil {
			t.Errorf("%s: New accepted it", name)
		}
	}
}

// TestStaticRoutingIgnoresGroups: under static routing a grouped fleet is
// the same simulation as that fleet with its groups erased — no routing
// index is built and the report is bit-identical.
func TestStaticRoutingIgnoresGroups(t *testing.T) {
	tr := flatSimTrace(40, 30)
	grouped := replicatedFleet(t)
	s := serve(t, routedConfig(RouteStatic), grouped, tr)
	if s.groupOf != nil {
		t.Error("static routing built a replica index")
	}
	plain := fleet(t, 2, []cluster.Shard{{Load: 8}, {Load: 2}, {Load: 2}}, []cluster.MachineID{0, 1, 0})
	if a, b := s.Report().Render(), serve(t, routedConfig(RouteStatic), plain, tr).Report().Render(); a != b {
		t.Errorf("static routing saw the groups:\n%s---\n%s", a, b)
	}
	// Machine 0 carries 10 of the 12 load units.
	if busy := s.Busy(); busy[0] <= busy[1] {
		t.Errorf("static busy %v: machine 0 should be the hot one", busy)
	}
}

// TestRoundRobinSplitsGroupWork: the group's legs alternate between its
// replicas whatever their popularity, and the observed load is charged to
// the replica that served.
func TestRoundRobinSplitsGroupWork(t *testing.T) {
	tr := flatSimTrace(40, 30)
	cfg := routedConfig(RouteRoundRobin)
	cfg.CostSigma = 0 // equal legs: the split is exact up to one leg
	s := serve(t, cfg, replicatedFleet(t), tr)
	got, err := s.Next(0, tr.Duration)
	if err != nil {
		t.Fatal(err)
	}
	oneLeg := s.legUnit / tr.Duration
	if d := math.Abs(got[0] - got[1]); d > oneLeg*(1+1e-9) {
		t.Errorf("replica loads %g vs %g differ by more than one leg (%g)", got[0], got[1], oneLeg)
	}
	if got[0]+got[1] < 8 || got[0]+got[1] > 12 {
		t.Errorf("group load %g, want ≈10", got[0]+got[1])
	}
	// Static, for contrast, serves the 8:2 popularity split.
	st := serve(t, routedConfig(RouteStatic), replicatedFleet(t), tr)
	if sg, _ := st.Next(0, tr.Duration); sg[0] < 2*sg[1] {
		t.Errorf("static replica loads %g vs %g, want ≈8:2", sg[0], sg[1])
	}
}

// TestLeastLoadedAvoidsTheBusyReplica: a leg goes to the replica behind
// the shorter queue, and end to end that relieves a machine made hot by
// ungrouped work.
func TestLeastLoadedAvoidsTheBusyReplica(t *testing.T) {
	s := bareSim([]float64{1, 1}, 2)
	s.cfg.Routing = RouteLeastLoaded
	s.home = []cluster.MachineID{0, 1}
	s.groupOf = indexGroups([]cluster.Shard{{Group: 1}, {Group: 1}})
	if got := s.route(1); got != 0 {
		t.Errorf("idle tie routed to shard %d, want the lowest ID", got)
	}
	for i := 0; i < 3; i++ {
		enqueue(s, 0, s.allocQuery(0, 1), 0, 1)
	}
	if got := s.route(0); got != 1 {
		t.Errorf("routed to shard %d behind a 3-deep queue", got)
	}

	p := fleet(t, 2, []cluster.Shard{
		{Load: 3, Group: 1},
		{Load: 3, Group: 1},
		{Load: 12}, // hot ungrouped on machine 0
	}, []cluster.MachineID{0, 1, 0})
	tr := flatSimTrace(40, 30)
	cfg := routedConfig(RouteRoundRobin)
	cfg.TargetUtil = 0.55 // machine 0 at ≈0.92 under an even split
	rr := serve(t, cfg, p, tr)
	cfg.Routing = RouteLeastLoaded
	ll := serve(t, cfg, p, tr)
	if a, b := ll.Report().All.P99, rr.Report().All.P99; a >= b {
		t.Errorf("least-loaded p99 %v not better than round-robin %v", a, b)
	}
	if a, b := ll.Busy()[0], rr.Busy()[0]; a >= b {
		t.Errorf("least-loaded did not relieve the hot machine: %v vs %v", a, b)
	}
}

// TestUngroupedFleetIgnoresRouting: without replica groups every policy
// renders the same report.
func TestUngroupedFleetIgnoresRouting(t *testing.T) {
	p := flatCluster(t, []float64{10, 6})
	tr := flatSimTrace(40, 30)
	base := serve(t, routedConfig(RouteStatic), p, tr).Report().Render()
	for _, r := range []Routing{RouteRoundRobin, RouteLeastLoaded} {
		s := serve(t, routedConfig(r), p, tr)
		if s.groupOf != nil {
			t.Errorf("%v built a replica index for an ungrouped fleet", r)
		}
		if got := s.Report().Render(); got != base {
			t.Errorf("%v differs on an ungrouped fleet:\n%s---\n%s", r, got, base)
		}
	}
}

// TestOfflineRunBasic is the three-call offline use: New, Sleep over the
// trace, Report and Busy.
func TestOfflineRunBasic(t *testing.T) {
	tr := flatSimTrace(50, 20)
	s := serve(t, routedConfig(RouteStatic), flatCluster(t, []float64{10, 10}), tr)
	rep := s.Report()
	lat := rep.All
	if lat.Queries == 0 || rep.Arrivals < lat.Queries {
		t.Errorf("completed %d of %d arrivals", lat.Queries, rep.Arrivals)
	}
	if !(lat.Mean > 0) || !(lat.P99 >= lat.P50) || !(lat.Max >= lat.P99) {
		t.Errorf("latency ordering broken: %+v", lat)
	}
	if lat != rep.Before {
		t.Error("offline run classified queries outside the before phase")
	}
	if mx := stats.Max(s.Busy()); mx <= 0 || mx > 1 {
		t.Errorf("max busy = %v", mx)
	}
}

// TestImbalanceRaisesTailLatency: same total load, balanced vs
// concentrated; the hot machine's queue must inflate p99.
func TestImbalanceRaisesTailLatency(t *testing.T) {
	tr := flatSimTrace(40, 30)
	cfg := routedConfig(RouteStatic)
	cfg.TargetUtil = 0.5 // the skewed fleet's hot machine runs at 0.95
	bal := serve(t, cfg, flatCluster(t, []float64{10, 10}), tr)
	skew := serve(t, cfg, flatCluster(t, []float64{19, 1}), tr)
	if a, b := skew.Report().All.P99, bal.Report().All.P99; a <= b {
		t.Errorf("skewed p99 (%v) should exceed balanced p99 (%v)", a, b)
	}
	if a, b := stats.Max(skew.Busy()), stats.Max(bal.Busy()); a <= b {
		t.Errorf("skewed max busy (%v) should exceed balanced (%v)", a, b)
	}
}

func TestVacantMachinesServeNothing(t *testing.T) {
	p := fleet(t, 2, []cluster.Shard{{Load: 5}}, []cluster.MachineID{0})
	s := serve(t, routedConfig(RouteStatic), p, flatSimTrace(20, 5))
	if busy := s.Busy(); busy[1] != 0 || busy[0] <= 0 {
		t.Errorf("busy = %v, want machine 1 idle and machine 0 serving", busy)
	}
}

// TestBusyFractionsBounded: an overloaded machine's queue holds committed
// service far past the clock, and busy must still be a fraction of
// elapsed time — at every point of the run, not only at the end.
func TestBusyFractionsBounded(t *testing.T) {
	cfg := routedConfig(RouteStatic)
	cfg.TargetUtil = 0.9 // hot machine offered 1.71× its capacity
	cfg.CostSigma = 1
	s, err := New(cfg, flatCluster(t, []float64{19, 1}), flatSimTrace(40, 30))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range s.Busy() {
		if b != 0 {
			t.Errorf("busy %v before the clock moved", b)
		}
	}
	for i := 0; i < 60; i++ {
		s.Sleep(0.5)
		for m, b := range s.Busy() {
			if b < 0 || b > 1 {
				t.Fatalf("t=%g machine %d busy fraction %v outside [0,1]", s.Now(), m, b)
			}
		}
	}
	if busy := s.Busy(); busy[0] < 0.95 {
		t.Errorf("overloaded machine busy %v, want saturated", busy[0])
	}
}

// TestConservation: every generated query is completed, dropped, or still
// in flight, at every point of a run that does all three.
func TestConservation(t *testing.T) {
	cfg := routedConfig(RouteLeastLoaded)
	cfg.TargetUtil = 0.9
	cfg.MaxQueue = 6
	s, err := New(cfg, fleet(t, 3, []cluster.Shard{
		{Load: 6, Group: 1}, {Load: 6, Group: 1}, {Load: 14}, {Load: 1},
	}, []cluster.MachineID{0, 1, 0, 2}), flatSimTrace(60, 20))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s.Sleep(0.5)
		rep := s.Report()
		if got := rep.All.Queries + rep.All.Dropped + s.InFlight(); got != rep.Arrivals {
			t.Fatalf("t=%g: %d completed + %d dropped + %d in flight != %d arrivals",
				s.Now(), rep.All.Queries, rep.All.Dropped, s.InFlight(), rep.Arrivals)
		}
	}
	if rep := s.Report(); rep.All.Dropped == 0 || rep.All.Queries == 0 || s.InFlight() == 0 {
		t.Errorf("run too tame to test conservation: %+v, %d in flight", rep.All, s.InFlight())
	}
}

// TestBusyCalibration: with unit query costs on a long flat trace, each
// unsaturated machine's busy fraction is TargetUtil scaled by the
// machine's utilization relative to the fleet mean, within 10%.
func TestBusyCalibration(t *testing.T) {
	c := &cluster.Cluster{}
	speeds := []float64{1, 1, 2, 0.5, 1}
	for m, sp := range speeds {
		c.Machines = append(c.Machines, cluster.Machine{
			ID: cluster.MachineID(m), Capacity: vec.Uniform(100), Speed: sp,
		})
	}
	loads := []float64{9, 3, 4, 8, 2, 1, 5, 6}
	homes := []cluster.MachineID{0, 1, 1, 2, 2, 3, 0, 2}
	for i, l := range loads {
		c.Shards = append(c.Shards, cluster.Shard{ID: cluster.ShardID(i), Static: vec.Uniform(1), Load: l})
	}
	p, err := cluster.FromAssignment(c, homes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Fanout: 4, TargetUtil: 0.4, Window: 10, Seed: 3}
	s := serve(t, cfg, p, flatSimTrace(100, 400))
	meanUtil := c.TotalLoad() / (1 + 1 + 2 + 0.5 + 1)
	for m, got := range s.Busy() {
		want := cfg.TargetUtil * p.Utilization(cluster.MachineID(m)) / meanUtil
		if want == 0 {
			if got != 0 {
				t.Errorf("machine %d hosts nothing but was busy %v", m, got)
			}
			continue
		}
		if want >= 1 {
			t.Fatalf("machine %d is saturated (%v); the instance is miscalibrated", m, want)
		}
		if math.Abs(got-want) > 0.1*want {
			t.Errorf("machine %d busy %.4f, want %.4f ±10%%", m, got, want)
		}
	}
}
