package ctl

import (
	"math"
	"strings"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/obs"
	"rexchange/internal/vec"
)

// render publishes r through a collector on a fresh registry and returns
// the registry's exposition — the path every /metrics scrape takes.
func render(t *testing.T, r cluster.Report) string {
	t.Helper()
	reg := obs.NewRegistry()
	newCollector(reg).set(r)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWritePrometheusFormat pins the exact exposition text for a fixed
// report: scrapers parse this format, so any drift is a breaking change.
// Families render in registry order (alphabetical); series within
// rex_static_pressure sort by label value.
func TestWritePrometheusFormat(t *testing.T) {
	r := cluster.Report{
		Machines:       3,
		Vacant:         1,
		MaxUtil:        0.9,
		MinUtil:        0.25,
		MeanUtil:       0.6,
		Imbalance:      1.5,
		StdDev:         0.25,
		CV:             0.125,
		Gini:           0.2,
		StaticPressure: vec.New(0.5, 1, 0.25),
	}
	got := render(t, r)
	want := `# HELP rex_imbalance MaxUtil/MeanUtil; 1.0 is perfect balance.
# TYPE rex_imbalance gauge
rex_imbalance 1.5
# HELP rex_machines Number of serving (non-vacant) machines.
# TYPE rex_machines gauge
rex_machines 3
# HELP rex_max_util Highest load/speed among serving machines.
# TYPE rex_max_util gauge
rex_max_util 0.9
# HELP rex_mean_util Capacity-weighted ideal utilization.
# TYPE rex_mean_util gauge
rex_mean_util 0.6
# HELP rex_min_util Lowest load/speed among serving machines.
# TYPE rex_min_util gauge
rex_min_util 0.25
# HELP rex_serving 1 when at least one machine serves shards; utilization gauges are meaningful only then.
# TYPE rex_serving gauge
rex_serving 1
# HELP rex_static_pressure Max used/capacity over machines, per static resource.
# TYPE rex_static_pressure gauge
rex_static_pressure{resource="disk"} 1
rex_static_pressure{resource="mem"} 0.5
rex_static_pressure{resource="net"} 0.25
# HELP rex_util_cv Coefficient of variation of per-machine utilization.
# TYPE rex_util_cv gauge
rex_util_cv 0.125
# HELP rex_util_gini Gini coefficient of per-machine utilization.
# TYPE rex_util_gini gauge
rex_util_gini 0.2
# HELP rex_util_stddev Standard deviation of per-machine utilization.
# TYPE rex_util_stddev gauge
rex_util_stddev 0.25
# HELP rex_vacant_machines Number of machines hosting no shards.
# TYPE rex_vacant_machines gauge
rex_vacant_machines 1
`
	if got != want {
		t.Fatalf("exposition format drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if problems := obs.LintExposition(strings.NewReader(got)); len(problems) != 0 {
		t.Fatalf("exposition fails lint: %v", problems)
	}
}

// TestWritePrometheusFloats checks the value rendering corner cases survive
// a Prometheus parse: shortest round-trip form, no localized formatting.
func TestWritePrometheusFloats(t *testing.T) {
	out := render(t, cluster.Report{MaxUtil: 1.0 / 3.0, Imbalance: 1e-9})
	if !strings.Contains(out, "rex_max_util 0.3333333333333333\n") {
		t.Fatalf("unexpected float rendering:\n%s", out)
	}
	if !strings.Contains(out, "rex_imbalance 1e-09\n") {
		t.Fatalf("unexpected exponent rendering:\n%s", out)
	}
}

// TestPromFloatSpecials pins the Prometheus spellings of the IEEE special
// values as a scraper sees them: NaN / +Inf / -Inf, never Go's default
// renderings of them embedded in some other spelling.
func TestPromFloatSpecials(t *testing.T) {
	out := render(t, cluster.Report{
		MaxUtil: math.NaN(), Imbalance: math.Inf(+1), MinUtil: math.Inf(-1), MeanUtil: -0.5,
	})
	for _, want := range []string{
		"rex_max_util NaN\n",
		"rex_imbalance +Inf\n",
		"rex_min_util -Inf\n",
		"rex_mean_util -0.5\n",
		"rex_util_gini 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
}

// TestWritePrometheusZeroServing checks the drained-cluster contract: with
// no serving machines every utilization gauge is exactly 0 (never NaN) and
// rex_serving distinguishes the empty cluster from a perfectly balanced
// one.
func TestWritePrometheusZeroServing(t *testing.T) {
	out := render(t, cluster.Report{Vacant: 4})
	if strings.Contains(out, "NaN") {
		t.Fatalf("zero-serving report leaked NaN:\n%s", out)
	}
	for _, want := range []string{
		"rex_serving 0\n",
		"rex_machines 0\n",
		"rex_vacant_machines 4\n",
		"rex_max_util 0\n",
		"rex_imbalance 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in zero-serving exposition:\n%s", want, out)
		}
	}
}

// TestCollectorOverwritesStale checks that a collector reused across
// snapshots fully replaces the previous report, including the serving
// indicator flipping when a cluster drains.
func TestCollectorOverwritesStale(t *testing.T) {
	reg := obs.NewRegistry()
	col := newCollector(reg)
	col.set(cluster.Report{Machines: 2, MaxUtil: 0.8, Imbalance: 1.2, StaticPressure: vec.Uniform(0.5)})
	col.set(cluster.Report{Vacant: 2})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"rex_serving 0\n",
		"rex_max_util 0\n",
		"rex_imbalance 0\n",
		`rex_static_pressure{resource="disk"} 0` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("stale value survived, missing %q:\n%s", want, out)
		}
	}
}
