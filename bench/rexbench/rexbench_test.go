package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"rexchange/internal/core"
)

// TestQuickEveryWorkload drives every workload through both passes of the
// run protocol at -quick scale, correctness gate included, and checks
// that each pass reports exactly the metrics the vocabulary names.
func TestQuickEveryWorkload(t *testing.T) {
	outDir := t.TempDir()
	for _, spec := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			d, err := runWorkload(runOpts{workload: spec.Name, seed: 1, reps: 1, quick: true, trace: traced, outDir: outDir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.Name, traced, err)
			}
			if !d.Correct {
				t.Errorf("%s traced=%v: gate failed: %v", spec.Name, traced, d.Failures)
			}
			want := untraced
			if traced {
				want = perLayer
			}
			if len(d.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", spec.Name, traced, len(d.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := d.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", spec.Name, traced, m.Name)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", spec.Name, m.Name, got.Value)
				}
			}
			if d.Attempted < 1 || d.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", spec.Name, traced, d.Attempted, d.Failed)
			}
		}
	}
}

// TestSchemaMatchesBenchmarkJSON pins the vocabulary in metrics.go to the
// BENCHMARK.json the driver reads, and both to the contract's limits.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(workloadSpecs) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics exceed 8 / 16 / 128", len(workloadSpecs), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n, u string) {
		if !name.MatchString(n) || (u != "" && !unit.MatchString(u)) {
			t.Errorf("name %q or unit %q outside the contract's alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(file.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json has %d workloads, metrics.go %d", len(file.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		checkName(w.Name, "")
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, metrics.go %+v", i, file.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, metrics.go %d", len(file.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		checkName(m.Name, m.Unit)
		f := file.EndToEnd[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, metrics.go %+v", i, f, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, metrics.go %d", len(file.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		checkName(m.Name, m.Unit)
		f := file.PerLayer[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, metrics.go %+v", i, f, m)
		}
	}
}

// TestTimedCampaignsAreFullyGated: only the warm-up goes through
// des.RunCampaign, which hides the simulator and the live placement from
// the gate. Every timed repetition runs the harness's own wiring on what
// set-up generated, so conservation, the arrival rate and the invariants
// are checked on it, and it renders the warm-up's report.
func TestTimedCampaignsAreFullyGated(t *testing.T) {
	for _, name := range []string{"sim_steady", "campaign_closed_loop", "campaign_traced"} {
		w := newCampaignWL(runOpts{workload: name, seed: 3, quick: true, tmpDir: t.TempDir()})
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		warm, err := w.warmup()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			o, err := w.rep(nil)
			if err != nil {
				t.Fatal(err)
			}
			if o.art.(*campaignArtifacts).run.final == nil {
				t.Errorf("%s: timed repetition %d has no final placement for the gate", name, i)
			}
			if o.digests["report"] != warm.digests["report"] {
				t.Errorf("%s: timed repetition %d renders another report than des.RunCampaign", name, i)
			}
			g := &gate{}
			w.check(g, o)
			if len(g.failures) != 0 {
				t.Errorf("%s: gate: %v", name, g.failures)
			}
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {40161, 99.9}, {600676, 99.99}, {1000000, 99.999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	// root 0..100 holds ctl.run 10..90, which holds two sleeps of 20 and
	// a solve of 30; a probe outside any layer takes 5.
	spans := []span{
		{Name: "harness.rep", Parent: -1, Start: 0, End: 100e9},
		{Name: "ctl.run", Parent: 0, Start: 10e9, End: 90e9},
		{Name: "des.sleep", Parent: 1, Start: 10e9, End: 30e9},
		{Name: "core.solve", Parent: 1, Start: 30e9, End: 60e9},
		{Name: "des.sleep", Parent: 1, Start: 60e9, End: 80e9},
		{Name: "harness.gate", Parent: 0, Start: 90e9, End: 95e9},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"harness.rep": 15, "ctl.run": 10, "des.sleep": 40, "core.solve": 30, "harness.gate": 5} {
		if math.Abs(self[name]-want) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	if got := layerCoverage(spans); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("layer coverage = %v, want 0.8", got)
	}
	m := values{}
	spanMetrics(spans, m)
	if m["des.sleep_s"] != 40 || m["des.sleep_calls"] != 2 || m["ctl.run_s"] != 80 || m["ctl.self_s"] != 10 || m["core.solve_s"] != 30 {
		t.Errorf("span metrics = %v", m)
	}
}

// TestGateCatchesBrokenOutputs feeds the gate a plan with one move dropped
// and a report whose arrivals fall 20% short of the configured rate: each
// must fail under its own name, which is what makes the command exit
// non-zero.
func TestGateCatchesBrokenOutputs(t *testing.T) {
	w := newSolveWL(runOpts{workload: "offline_tight", seed: 1, quick: true})
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	res, err := core.New(w.solverConfig(w.iterations)).Solve(w.p0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.NumMoves() < 2 {
		t.Fatalf("plan has %d moves, the test needs at least 2", res.Plan.NumMoves())
	}
	good := &gate{}
	replayed, err := res.Plan.Validate(w.p0)
	if err != nil {
		t.Fatal(err)
	}
	checkSolve(good, w.p0, res, replayed)
	checkArrivalRate(good, 60000, 120, 500)
	if len(good.failures) != 0 {
		t.Fatalf("gate rejects correct outputs: %v", good.failures)
	}

	broken := *res.Plan
	broken.Moves = append(append(broken.Moves[:0:0], res.Plan.Moves[:1]...), res.Plan.Moves[2:]...)
	replayed, _ = broken.Validate(w.p0) // nil when the shortened plan is not even feasible
	bad := &gate{}
	checkSolve(bad, w.p0, res, replayed)
	checkArrivalRate(bad, 48000, 120, 500)
	names := regexp.MustCompile(`^(plan_replay|arrival_rate): `)
	if len(bad.failures) != 2 || !names.MatchString(bad.failures[0]) || !names.MatchString(bad.failures[1]) {
		t.Errorf("gate failures = %q, want plan_replay and arrival_rate", bad.failures)
	}
}

func TestJudge(t *testing.T) {
	wall := metricSpec{Name: "wall_s", Better: "lower", Same: 0.10}
	rate := metricSpec{Name: "work_per_s", Better: "higher", Same: 0.10}
	exact := metricSpec{Name: "plan_moves", Exact: true}
	setup := metricSpec{Name: "setup_s", Better: "lower", Same: 0.25, Floor: 0.05}
	tight := func(v float64) metricStat { return metricStat{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 5} }
	loose := func(v float64) metricStat { return metricStat{Value: v, Q1: v * 0.9, Q3: v * 1.1, N: 5} }
	for _, c := range []struct {
		spec metricSpec
		a, b metricStat
		want string
	}{
		{wall, tight(2), tight(2.1), verdictOK},
		{wall, tight(2), tight(2.3), verdictRegressed},
		{wall, tight(2), tight(1.5), verdictOK},
		{wall, loose(2), tight(2.1), verdictUnresolved},
		{wall, loose(2), tight(2.5), verdictRegressed},
		{rate, tight(100), tight(95), verdictOK},
		{rate, tight(100), tight(85), verdictRegressed},
		{rate, tight(100), tight(130), verdictOK},
		{setup, loose(0.002), tight(0.004), verdictOK},
		{setup, tight(1.5), tight(2), verdictRegressed},
		{exact, tight(3012), tight(3012), verdictOK},
		{exact, tight(3012), tight(3013), verdictChanged},
	} {
		if _, got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.spec.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
