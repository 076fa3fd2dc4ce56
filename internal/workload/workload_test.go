package workload

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rexchange/internal/cluster"
)

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(4, 1)
	sum := 0.0
	for i := range w {
		sum += w[i]
		if i > 0 && w[i] > w[i-1] {
			t.Errorf("weights not decreasing: %v", w)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum = %v", sum)
	}
	u := ZipfWeights(5, 0)
	for _, x := range u {
		if math.Abs(x-0.2) > 1e-12 {
			t.Errorf("uniform weights = %v", u)
		}
	}
	if ZipfWeights(0, 1) != nil {
		t.Error("n=0 should yield nil")
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if LogNormal(r, 0, 1) <= 0 {
			t.Fatal("lognormal must be positive")
		}
	}
}

func TestShuffledIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	p := Shuffled(r, 50)
	seen := make([]bool, 50)
	for _, x := range p {
		if x < 0 || x >= 50 || seen[x] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[x] = true
	}
}

func TestGenerateDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 20
	cfg.Shards = 200
	inst, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := inst.Cluster
	if c.NumMachines() != 20 || c.NumShards() != 200 {
		t.Fatalf("sizes = %d/%d", c.NumMachines(), c.NumShards())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !inst.Placement.Feasible() {
		t.Fatal("initial placement must be statically feasible")
	}
	// fill should be close to target in the tightest dimension
	fill := c.TotalStatic().MaxRatio(c.TotalCapacity())
	if math.Abs(fill-cfg.TargetFill) > 1e-6 {
		t.Errorf("fill = %v, want %v", fill, cfg.TargetFill)
	}
	// generated instance should be load-imbalanced (that's the point)
	rep := inst.Placement.Report()
	if rep.Imbalance < 1.05 {
		t.Errorf("initial imbalance = %v, expected > 1.05", rep.Imbalance)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines, cfg.Shards = 10, 80
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cluster.Shards {
		if a.Cluster.Shards[i] != b.Cluster.Shards[i] {
			t.Fatalf("shard %d differs between same-seed runs", i)
		}
	}
	for s := range a.Cluster.Shards {
		if a.Placement.Home(cluster.ShardID(s)) != b.Placement.Home(cluster.ShardID(s)) {
			t.Fatalf("placement differs between same-seed runs at shard %d", s)
		}
	}
	cfg.Seed = 99
	c2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Cluster.Shards {
		if a.Cluster.Shards[i] != c2.Cluster.Shards[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical shards")
	}
}

func TestGenerateRealistic(t *testing.T) {
	cfg := RealisticConfig()
	cfg.Machines = 30
	cfg.Shards = 400
	inst, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// heterogeneous fleet: expect >1 distinct speed
	speeds := map[float64]bool{}
	for _, m := range inst.Cluster.Machines {
		speeds[m.Speed] = true
	}
	if len(speeds) < 2 {
		t.Errorf("realistic fleet should be heterogeneous, got speeds %v", speeds)
	}
	if !inst.Placement.Feasible() {
		t.Fatal("realistic placement must be feasible")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Machines = 0
	if _, err := Generate(bad); err == nil {
		t.Error("expected error for zero machines")
	}
	bad = DefaultConfig()
	bad.Shards = 0
	if _, err := Generate(bad); err == nil {
		t.Error("expected error for zero shards")
	}
	bad = DefaultConfig()
	bad.TargetFill = 1.5
	if _, err := Generate(bad); err == nil {
		t.Error("expected error for fill >= 1")
	}
	bad = DefaultConfig()
	bad.Tiers = []MachineTier{{Speed: 0, Weight: 1}}
	if _, err := Generate(bad); err == nil {
		t.Error("expected error for zero-speed tier")
	}
}

func TestGenerateTraceFlat(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Duration = 100
	cfg.BaseRate = 50
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := tr.Rate()
	if rate < 40 || rate > 60 {
		t.Errorf("rate = %v, want ≈50", rate)
	}
	last := -1.0
	for _, q := range tr.Queries {
		if q.At < last {
			t.Fatal("arrivals out of order")
		}
		if q.At < 0 || q.At >= cfg.Duration {
			t.Fatalf("arrival %v outside trace window", q.At)
		}
		if q.Cost <= 0 {
			t.Fatal("non-positive cost")
		}
		last = q.At
	}
}

func TestGenerateTraceDiurnal(t *testing.T) {
	cfg := TraceConfig{Duration: 1000, BaseRate: 20, DiurnalAmp: 0.8, Period: 1000, CostSigma: 0.1, Seed: 3}
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First half of a sine period has elevated rate, second half depressed.
	var first, second int
	for _, q := range tr.Queries {
		if q.At < 500 {
			first++
		} else {
			second++
		}
	}
	if first <= second {
		t.Errorf("diurnal shape missing: first=%d second=%d", first, second)
	}
}

func TestGenerateTraceErrors(t *testing.T) {
	if _, err := GenerateTrace(TraceConfig{Duration: 0, BaseRate: 1}); err == nil {
		t.Error("expected duration error")
	}
	if _, err := GenerateTrace(TraceConfig{Duration: 1, BaseRate: 0}); err == nil {
		t.Error("expected rate error")
	}
	if _, err := GenerateTrace(TraceConfig{Duration: 1, BaseRate: 1, DiurnalAmp: 1}); err == nil {
		t.Error("expected amp error")
	}
}

// TestGenerateTraceRejectsNonFinite: a NaN or infinite parameter is named
// in the error. A NaN or +Inf Duration, or a NaN DiurnalAmp, would
// otherwise keep the thinning loop from ever reaching the trace end.
func TestGenerateTraceRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, set := range map[string]func(*TraceConfig){
			"Duration":   func(c *TraceConfig) { c.Duration = bad },
			"BaseRate":   func(c *TraceConfig) { c.BaseRate = bad },
			"DiurnalAmp": func(c *TraceConfig) { c.DiurnalAmp = bad },
			"Period":     func(c *TraceConfig) { c.Period = bad },
		} {
			cfg := DefaultTraceConfig()
			set(&cfg)
			if _, err := GenerateTrace(cfg); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s = %g: err = %v, want one naming %s", field, bad, err, field)
			}
		}
	}
}

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Duration = 5
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration != tr.Duration {
		t.Errorf("duration %v != %v", got.Duration, tr.Duration)
	}
	if len(got.Queries) != len(tr.Queries) {
		t.Fatalf("query count %d != %d", len(got.Queries), len(tr.Queries))
	}
	for i := range got.Queries {
		if math.Abs(got.Queries[i].At-tr.Queries[i].At) > 1e-5 ||
			math.Abs(got.Queries[i].Cost-tr.Queries[i].Cost) > 1e-5 {
			t.Fatalf("query %d differs", i)
		}
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Duration = 2
	tr, _ := GenerateTrace(cfg)
	path := t.TempDir() + "/trace.csv"
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Queries) != len(tr.Queries) {
		t.Error("file round trip lost queries")
	}
	if _, err := LoadTraceFile(path + ".missing"); err == nil {
		t.Error("expected missing-file error")
	}
}

func TestLoadTraceMalformed(t *testing.T) {
	cases := []string{
		"at,cost\n1,2,3\n",
		"at,cost\nnope,1\n",
		"at,cost\n1,nope\n",
		"# duration=abc\n",
	}
	for _, c := range cases {
		if _, err := LoadTrace(bytes.NewBufferString(c)); err == nil {
			t.Errorf("expected parse error for %q", c)
		}
	}
}

func TestLoadTraceInfersDuration(t *testing.T) {
	got, err := LoadTrace(bytes.NewBufferString("at,cost\n1.0,1.0\n5.0,2.0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration != 5 {
		t.Errorf("inferred duration = %v, want 5", got.Duration)
	}
}
