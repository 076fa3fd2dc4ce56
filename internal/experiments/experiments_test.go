package experiments

import (
	"strconv"
	"strings"
	"testing"

	"rexchange/internal/baseline"
	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/ctl"
	"rexchange/internal/plan"
)

var quick = Scale{Quick: true}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q as float", s)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bee"}}
	tbl.AddRow(1, 2.34567)
	tbl.AddRow("long-cell", "x")
	s := tbl.String()
	for _, want := range []string{"== X: demo ==", "a", "bee", "2.3457", "long-cell"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestT1GapNonNegative(t *testing.T) {
	tbl, err := T1OptimalityGap(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range tbl.Rows {
		if r[8] != "optimal" && r[8] != "certified" {
			continue // node-limited runs have no certified optimum
		}
		gap := parseF(t, r[6])
		if gap < -0.5 { // small numeric slack: SRA cannot beat the optimum
			t.Errorf("negative optimality gap %v%% in row %v", gap, r)
		}
	}
}

func TestT2SRABeatsInitial(t *testing.T) {
	tbl, err := T2EndToEnd(quick)
	if err != nil {
		t.Fatal(err)
	}
	// index rows by dataset+method
	get := func(ds, m string) []string {
		for _, r := range tbl.Rows {
			if r[0] == ds && strings.HasPrefix(r[1], m) {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", ds, m)
		return nil
	}
	for _, ds := range []string{"synthetic", "realistic"} {
		init := parseF(t, get(ds, "initial")[2])
		sra := parseF(t, get(ds, "sra-k")[2])
		if sra >= init {
			t.Errorf("%s: SRA maxU %v did not improve on initial %v", ds, sra, init)
		}
		// SRA with exchange should beat or roughly match greedy (quick runs
		// are under-converged; allow small slack)
		greedy := parseF(t, get(ds, "greedy")[2])
		if sra > greedy*1.05 {
			t.Errorf("%s: SRA (%v) worse than greedy (%v)", ds, sra, greedy)
		}
	}
}

func TestT3MoreExchangeNeverHurts(t *testing.T) {
	tbl, err := T3PlanFeasibility(quick)
	if err != nil {
		t.Fatal(err)
	}
	// group rows by (fill, displace); planned count must be non-decreasing
	// in K within each group
	byKey := map[string][]int{}
	order := []string{}
	for _, r := range tbl.Rows {
		key := r[0] + "/" + r[1]
		if _, ok := byKey[key]; !ok {
			order = append(order, key)
		}
		byKey[key] = append(byKey[key], int(parseF(t, r[3])))
	}
	for _, key := range order {
		counts := byKey[key]
		for i := 1; i < len(counts); i++ {
			if counts[i] < counts[i-1] {
				t.Errorf("%s: planning success dropped with more exchange machines: %v",
					key, counts)
			}
		}
	}
}

func TestF1MoreKNeverHurts(t *testing.T) {
	tbl, err := F1ExchangeSweep(quick)
	if err != nil {
		t.Fatal(err)
	}
	var sraMax, overhead []float64
	for _, r := range tbl.Rows {
		if r[1] == "sra" {
			sraMax = append(sraMax, parseF(t, r[2]))
			overhead = append(overhead, parseF(t, r[4])+parseF(t, r[5]))
		}
	}
	if len(sraMax) < 2 {
		t.Fatal("need at least two K points")
	}
	// K=hi should not be (much) worse than K=0: allow stochastic slack
	if sraMax[len(sraMax)-1] > sraMax[0]*1.05 {
		t.Errorf("more exchange machines hurt balance: %v", sraMax)
	}
	// migration overhead (staged + displaced moves) must not grow with K
	if overhead[len(overhead)-1] > overhead[0] {
		t.Errorf("more exchange machines raised migration overhead: %v", overhead)
	}
	// every sra schedule must have been executable
	for _, r := range tbl.Rows {
		if r[1] == "sra" && parseF(t, r[6]) < 0 {
			t.Errorf("unexecutable schedule at K=%s", r[0])
		}
	}
}

func TestF2SRAWinsAtHighFill(t *testing.T) {
	tbl, err := F2TightnessSweep(quick)
	if err != nil {
		t.Fatal(err)
	}
	// at the highest fill in the sweep, SRA must be at least as good as
	// greedy
	var lastFill string
	for _, r := range tbl.Rows {
		lastFill = r[0]
	}
	var sra, greedy float64
	for _, r := range tbl.Rows {
		if r[0] != lastFill {
			continue
		}
		switch {
		case strings.HasPrefix(r[1], "sra"):
			sra = parseF(t, r[3])
		case r[1] == "greedy":
			greedy = parseF(t, r[3])
		}
	}
	if sra > greedy+1e-9 {
		t.Errorf("at fill %s SRA (%v) worse than greedy (%v)", lastFill, sra, greedy)
	}
}

func TestF3ProducesTimings(t *testing.T) {
	tbl, err := F3Scalability(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tbl.Rows {
		if parseF(t, r[3]) < 0 {
			t.Errorf("negative runtime in %v", r)
		}
		if parseF(t, r[5]) > parseF(t, r[4]) {
			t.Errorf("max utilization rose during solve: %v", r)
		}
	}
}

func TestF4TrajectoryDecreases(t *testing.T) {
	tbl, err := F4Convergence(quick)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i, r := range tbl.Rows {
		v := parseF(t, r[1])
		if i > 0 && v > prev+1e-9 {
			t.Errorf("objective rose between checkpoints: %v → %v", prev, v)
		}
		prev = v
	}
}

func TestF5LatencyImproves(t *testing.T) {
	tbl, err := F5LatencySim(quick)
	if err != nil {
		t.Fatal(err)
	}
	var before, after []string
	for _, r := range tbl.Rows {
		switch r[0] {
		case "initial":
			before = r
		case "rebalanced":
			after = r
		}
	}
	if before == nil || after == nil {
		t.Fatal("missing before/after rows")
	}
	// max busy fraction must drop after rebalancing
	if parseF(t, after[1]) > parseF(t, before[1])+1e-9 {
		t.Errorf("max busy did not drop: %s → %s", before[1], after[1])
	}
	// p99 should improve (allow small slack: queues are stochastic)
	if parseF(t, after[5]) > parseF(t, before[5])*1.05 {
		t.Errorf("p99 did not improve: %s → %s", before[5], after[5])
	}
}

// TestFigureMakespansGolden pins the migration numbers of the F-figures at
// quick scale: the F1 instances compare with == at full precision (event
// times are exact sums, no tolerance is needed) and the F5 row as the exact
// cells the table prints.
func TestFigureMakespansGolden(t *testing.T) {
	type golden struct {
		makespan, bytes float64
		steps, peak     int
	}
	cfg := ctl.MigrationConfig{Bandwidth: 100, Concurrency: 4}
	check := func(name string, from *cluster.Placement, pl *plan.Plan, want golden) {
		t.Helper()
		ctr, makespan, err := ctl.ExecutePlan(from, pl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := (golden{makespan, ctr.BytesMoved, ctr.Completed, ctr.PeakParallel}); got != want {
			t.Errorf("%s: ExecutePlan = %+v, want %+v", name, got, want)
		}
	}

	// F1's quick-scale instance and plans.
	p, err := genInstance(16, 200, 0.95, 401)
	if err != nil {
		t.Fatal(err)
	}
	ls := baseline.LocalSearch(p, baseline.Config{AllowSwaps: true})
	check("F1 local-search", p, ls.Plan, golden{0.07065415967601486, 21.96506811084895, 5, 4})
	for k, want := range []golden{
		{6.424206453224407, 1122.891747513398, 157, 4},
		{5.752454422948842, 1329.921764154131, 168, 4},
		{4.870132202070855, 1340.7303039697367, 174, 4},
	} {
		pk, err := cluster.BorrowExchange(p, k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.New(solverConfig(300, 11)).Solve(pk)
		if err != nil {
			t.Fatal(err)
		}
		check("F1 sra k="+strconv.Itoa(k), pk, res.Plan, want)
	}

	tbl, err := F5LatencySim(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Every F5 row: the latency rows hold the profiled shards (invindex),
	// the solve and the simulator to the same bits as the migration row.
	wantF5 := []string{
		"initial 0.9840 0.8775 0.8690 0.8386 2.5667 2.6548",
		"rebalanced 0.9253 0.8908 0.4372 0.3806 1.3449 1.4852",
		"migration[sec/moves/bytes/peak] - - 0.2141 45.0000 39.5876 4.0000",
	}
	if len(tbl.Rows) != len(wantF5) {
		t.Fatalf("F5 has %d rows, want %d", len(tbl.Rows), len(wantF5))
	}
	for i, want := range wantF5 {
		if got := strings.Join(tbl.Rows[i], " "); got != want {
			t.Errorf("F5 row %d = %q, want %q", i, got, want)
		}
	}
}

func TestF6FullVariantCompetitive(t *testing.T) {
	tbl, err := F6OperatorAblation(quick)
	if err != nil {
		t.Fatal(err)
	}
	var full, worst float64
	for _, r := range tbl.Rows {
		if r[0] == "initial" {
			continue
		}
		v := parseF(t, r[1])
		if r[0] == "full" {
			full = v
		}
		if v > worst {
			worst = v
		}
	}
	if full == 0 {
		t.Fatal("full variant missing")
	}
	if full > worst+1e-9 {
		t.Errorf("full variant (%v) is the worst ablation (%v)", full, worst)
	}
}

func TestT4AffinityAlwaysHolds(t *testing.T) {
	tbl, err := T4Replicated(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r[5] != "yes" {
			t.Errorf("anti-affinity violated in row %v", r)
		}
		if parseF(t, r[3]) > parseF(t, r[2]) {
			t.Errorf("rebalance worsened maxU in row %v", r)
		}
	}
}

func TestF7RebalancingBeatsDrift(t *testing.T) {
	tbl, err := F7ContinuousRebalance(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// In every round the rebalanced series must end at or below the
	// drifting static series, and each round's rebalance must not worsen
	// its own starting point.
	last := tbl.Rows[len(tbl.Rows)-1]
	if parseF(t, last[3]) > parseF(t, last[1]) {
		t.Errorf("final rebalanced maxU %s above static %s", last[3], last[1])
	}
	for _, r := range tbl.Rows {
		if parseF(t, r[3]) > parseF(t, r[2])+1e-9 {
			t.Errorf("round %s: rebalance worsened maxU", r[0])
		}
	}
}

func TestF8RoutingAndRebalanceBothHelp(t *testing.T) {
	tbl, err := F8ReplicaRouting(quick)
	if err != nil {
		t.Fatal(err)
	}
	get := func(placement, routing string) []string {
		for _, r := range tbl.Rows {
			if r[0] == placement && r[1] == routing {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", placement, routing)
		return nil
	}
	// rebalancing helps under static routing
	if parseF(t, get("rebalanced", "static")[5]) > parseF(t, get("initial", "static")[5])*1.05 {
		t.Error("rebalance did not improve p99 under static routing")
	}
	// least-loaded routing should not be worse than round-robin on the
	// initial (imbalanced) placement
	if parseF(t, get("initial", "least-loaded")[5]) > parseF(t, get("initial", "round-robin")[5])*1.10 {
		t.Errorf("least-loaded (%s) much worse than round-robin (%s)",
			get("initial", "least-loaded")[5], get("initial", "round-robin")[5])
	}
	// and it absorbs the bad placement: at most half of static's p99
	if ll, st := parseF(t, get("initial", "least-loaded")[5]), parseF(t, get("initial", "static")[5]); ll > st/2 {
		t.Errorf("least-loaded p99 %v on the initial placement is not ≤ ½ of static %v", ll, st)
	}
	// rebalancing never hurts, whatever the routing
	for _, routing := range []string{"static", "round-robin", "least-loaded"} {
		if after, before := parseF(t, get("rebalanced", routing)[5]), parseF(t, get("initial", routing)[5]); after > before {
			t.Errorf("%s: rebalanced p99 %v above initial %v", routing, after, before)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"T1", "T2", "T3", "T4", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8"} {
		if ByID(id) == nil {
			t.Errorf("ByID(%s) = nil", id)
		}
	}
	if ByID("nope") != nil {
		t.Error("unknown ID should be nil")
	}
}
