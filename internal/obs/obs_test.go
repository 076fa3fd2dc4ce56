package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryExposition pins the rendered exposition for a registry with
// every metric kind, and a vector that has no series: scrapers parse this
// byte stream, so drift is a breaking change.
func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rex_test_ops_total", "Operations performed.")
	c.Add(3)
	g := reg.Gauge("rex_test_depth", "Queue depth.")
	g.Set(2.5)
	cv := reg.CounterVec("rex_test_outcomes_total", "Outcomes by kind.", "kind")
	cv.With("ok").Add(2)
	cv.With("err").Inc()
	h := reg.Histogram("rex_test_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	// A vector with no series yet renders nothing, not a bare header.
	reg.CounterVec("rex_test_unused_total", "Never resolved.", "kind")

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP rex_test_depth Queue depth.
# TYPE rex_test_depth gauge
rex_test_depth 2.5
# HELP rex_test_ops_total Operations performed.
# TYPE rex_test_ops_total counter
rex_test_ops_total 3
# HELP rex_test_outcomes_total Outcomes by kind.
# TYPE rex_test_outcomes_total counter
rex_test_outcomes_total{kind="err"} 1
rex_test_outcomes_total{kind="ok"} 2
# HELP rex_test_seconds Latency.
# TYPE rex_test_seconds histogram
rex_test_seconds_bucket{le="0.1"} 1
rex_test_seconds_bucket{le="1"} 2
rex_test_seconds_bucket{le="+Inf"} 3
rex_test_seconds_sum 5.55
rex_test_seconds_count 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if problems := LintExposition(strings.NewReader(b.String())); len(problems) != 0 {
		t.Fatalf("self-lint found problems: %v", problems)
	}
}

// TestHistogramVecExposition pins the rendered form of a labelled
// histogram family: per-label series each carry the full
// _bucket/_sum/_count triple, label values sort deterministically.
func TestHistogramVecExposition(t *testing.T) {
	reg := NewRegistry()
	hv := reg.HistogramVec("rex_test_phase_seconds", "Latency by phase.", []float64{0.1, 1}, "phase")
	hv.With("before").Observe(0.05)
	hv.With("during").Observe(0.5)
	hv.With("during").Observe(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP rex_test_phase_seconds Latency by phase.
# TYPE rex_test_phase_seconds histogram
rex_test_phase_seconds_bucket{phase="before",le="0.1"} 1
rex_test_phase_seconds_bucket{phase="before",le="1"} 1
rex_test_phase_seconds_bucket{phase="before",le="+Inf"} 1
rex_test_phase_seconds_sum{phase="before"} 0.05
rex_test_phase_seconds_count{phase="before"} 1
rex_test_phase_seconds_bucket{phase="during",le="0.1"} 0
rex_test_phase_seconds_bucket{phase="during",le="1"} 1
rex_test_phase_seconds_bucket{phase="during",le="+Inf"} 2
rex_test_phase_seconds_sum{phase="during"} 2.5
rex_test_phase_seconds_count{phase="during"} 2
`
	if got := b.String(); got != want {
		t.Fatalf("exposition drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if problems := LintExposition(strings.NewReader(b.String())); len(problems) != 0 {
		t.Fatalf("self-lint found problems: %v", problems)
	}
}

// TestFormatFloatSpecials checks the Prometheus spellings of the special
// float values.
func TestFormatFloatSpecials(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{math.NaN(), "NaN"},
		{math.Inf(+1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{1.0 / 3.0, "0.3333333333333333"},
		{1e-9, "1e-09"},
		{0, "0"},
	}
	for _, tc := range cases {
		if got := FormatFloat(tc.in); got != tc.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestLabelEscaping checks that label values with quotes, backslashes,
// and newlines render escaped and survive the validator.
func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	gv := reg.GaugeVec("rex_test_weird", "Weird labels.", "path")
	gv.With(`a"b\c` + "\nd").Set(1)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `rex_test_weird{path="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaping drifted:\n%s", b.String())
	}
	if problems := LintExposition(strings.NewReader(b.String())); len(problems) != 0 {
		t.Fatalf("lint rejected escaped labels: %v", problems)
	}
}

// TestRegistryPanics checks the registration-time contracts.
func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	reg := NewRegistry()
	reg.Counter("rex_test_dup_total", "x.")
	expectPanic("duplicate", func() { reg.Counter("rex_test_dup_total", "x.") })
	expectPanic("bad name", func() { reg.Counter("1bad", "x.") })
	expectPanic("bad label", func() { reg.CounterVec("rex_test_l_total", "x.", "__reserved") })
	expectPanic("unsorted buckets", func() {
		NewRegistry().Histogram("rex_test_b", "x.", []float64{1, 1})
	})
	expectPanic("negative counter", func() { reg.Counter("rex_test_neg_total", "x.").Add(-1) })
	expectPanic("label arity", func() {
		NewRegistry().CounterVec("rex_test_a_total", "x.", "a", "b").With("only-one")
	})
}

// TestRegistryEnforcesNameRule: registration panics on any name outside
// rex_-prefixed snake_case, even one Prometheus would accept, and names
// the offending metric in the panic.
func TestRegistryEnforcesNameRule(t *testing.T) {
	for _, name := range []string{
		"queries_total", "rex", "rex_", "rex_Queries_total", "rex__queries",
		"rex_queries_", "rex_queries:rate", "_rex_queries",
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("%q", name)) {
					t.Fatalf("panic = %q, want one naming %q", msg, name)
				}
			}()
			NewRegistry().Counter(name, "x.")
		})
	}
	NewRegistry().Counter("rex_sim_2x_queries_total", "x.")
}

// TestConcurrentUpdates hammers one counter, gauge, and histogram from
// many goroutines and checks totals; run under -race this also proves the
// update paths are data-race free.
func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rex_test_cc_total", "x.")
	h := reg.Histogram("rex_test_ch", "x.", []float64{1, 10})
	cv := reg.CounterVec("rex_test_cv_total", "x.", "w")
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := cv.With("w")
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
				lbl.Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Errorf("counter = %g, want %d", got, workers*each)
	}
	if got := h.Count(); got != workers*each {
		t.Errorf("histogram count = %d, want %d", got, workers*each)
	}
	if got := cv.With("w").Value(); got != workers*each {
		t.Errorf("vec counter = %g, want %d", got, workers*each)
	}
}

// TestLintExpositionCatches feeds known-bad expositions to the validator.
func TestLintExpositionCatches(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring expected among the problems
	}{
		{"missing help", "# TYPE rex_x gauge\nrex_x 1\n", "missing HELP"},
		{"missing type", "# HELP rex_x h.\nrex_x 1\n", "missing TYPE"},
		{"orphan sample", "rex_y 2\n", "missing HELP"},
		{"bad value", "# HELP rex_x h.\n# TYPE rex_x gauge\nrex_x oops\n", "bad value"},
		{"bad label syntax", "# HELP rex_x h.\n# TYPE rex_x gauge\nrex_x{a=b} 1\n", "expected quoted value"},
		{"counter suffix", "# HELP rex_c h.\n# TYPE rex_c counter\nrex_c 1\n", "should end in _total"},
		{"negative counter", "# HELP rex_c_total h.\n# TYPE rex_c_total counter\nrex_c_total -1\n", "negative"},
		{"duplicate series", "# HELP rex_x h.\n# TYPE rex_x gauge\nrex_x 1\nrex_x 2\n", "duplicate series"},
		{
			"histogram without inf",
			"# HELP rex_h h.\n# TYPE rex_h histogram\nrex_h_bucket{le=\"1\"} 1\nrex_h_sum 1\nrex_h_count 1\n",
			`missing le="+Inf"`,
		},
		{
			"histogram count mismatch",
			"# HELP rex_h h.\n# TYPE rex_h histogram\nrex_h_bucket{le=\"+Inf\"} 3\nrex_h_sum 1\nrex_h_count 2\n",
			"disagrees",
		},
		{
			"histogram decreasing",
			"# HELP rex_h h.\n# TYPE rex_h histogram\nrex_h_bucket{le=\"1\"} 5\nrex_h_bucket{le=\"2\"} 3\nrex_h_bucket{le=\"+Inf\"} 5\nrex_h_sum 1\nrex_h_count 5\n",
			"decrease",
		},
		{"required missing", "# HELP rex_x h.\n# TYPE rex_x gauge\nrex_x 1\n", "required family"},
		{
			"exemplar without trace_id",
			"# HELP rex_h h.\n# TYPE rex_h histogram\nrex_h_bucket{le=\"+Inf\"} 1 # {span_id=\"ab\"} 0.5\nrex_h_sum 0.5\nrex_h_count 1\n",
			"lacks a trace_id",
		},
		{
			"exemplar on non-bucket series",
			"# HELP rex_h h.\n# TYPE rex_h histogram\nrex_h_bucket{le=\"+Inf\"} 1\nrex_h_sum 0.5 # {trace_id=\"ab\"} 0.5\nrex_h_count 1\n",
			"exemplar on non-bucket series rex_h_sum",
		},
		{
			"exemplar bad value",
			"# HELP rex_h h.\n# TYPE rex_h histogram\nrex_h_bucket{le=\"+Inf\"} 1 # {trace_id=\"ab\"} oops\nrex_h_sum 0.5\nrex_h_count 1\n",
			"exemplar has bad value",
		},
		{
			"exemplar without label set",
			"# HELP rex_h h.\n# TYPE rex_h histogram\nrex_h_bucket{le=\"+Inf\"} 1 # trace_id=\"ab\" 0.5\nrex_h_sum 0.5\nrex_h_count 1\n",
			"exemplar must start with a label set",
		},
	}
	for _, tc := range cases {
		var required []string
		if tc.name == "required missing" {
			required = []string{"rex_absent"}
		}
		problems := LintExposition(strings.NewReader(tc.in), required...)
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: problems %v do not mention %q", tc.name, problems, tc.want)
		}
	}
}

// TestLintAcceptsRenderedExemplars checks the exemplar rules against the
// renderer: a registry whose histograms hold traced observations, rendered
// with exemplars, lints clean.
func TestLintAcceptsRenderedExemplars(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("rex_test_copy_seconds", "Copy time.", TimeBuckets()).ObserveTraced(0.02, "00000000000000ab")
	hv := reg.HistogramVec("rex_test_phase_seconds", "Phase time.", TimeBuckets(), "phase")
	hv.With("solve").ObserveTraced(3, "00000000000000cd")
	hv.With("solve").Observe(500)
	var b strings.Builder
	if err := reg.writePrometheus(&b, true); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), ` # {trace_id="`); got != 2 {
		t.Fatalf("rendered %d exemplars, want 2:\n%s", got, b.String())
	}
	if problems := LintExposition(strings.NewReader(b.String())); len(problems) != 0 {
		t.Fatalf("unexpected problems: %v\n%s", problems, b.String())
	}
}

// TestLintAcceptsSpecials checks NaN/Inf values and timestamps parse.
func TestLintAcceptsSpecials(t *testing.T) {
	in := "# HELP rex_x h.\n# TYPE rex_x gauge\nrex_x NaN\n" +
		"# HELP rex_y h.\n# TYPE rex_y gauge\nrex_y{a=\"b\"} +Inf 1700000000000\n"
	if problems := LintExposition(strings.NewReader(in)); len(problems) != 0 {
		t.Fatalf("unexpected problems: %v", problems)
	}
}

// TestNilHandlesAreNoOps pins the telemetry-off contract instrumented code
// relies on instead of guards: a nil Registry registers nothing and hands
// out nil handles, every method of a nil handle does nothing (reads are
// zero), and a nil Journal drops events.
func TestNilHandlesAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("rex_test_ops_total", "h.")
	g := reg.Gauge("rex_test_depth", "h.")
	h := reg.Histogram("rex_test_seconds", "h.", TimeBuckets())
	cv := reg.CounterVec("rex_test_outcomes_total", "h.", "kind")
	gv := reg.GaugeVec("rex_test_pressure", "h.", "resource")
	hv := reg.HistogramVec("rex_test_latency_seconds", "h.", TimeBuckets(), "phase")
	if c != nil || g != nil || h != nil || cv != nil || gv != nil || hv != nil {
		t.Fatalf("nil registry handed out a non-nil handle: %v %v %v %v %v %v", c, g, h, cv, gv, hv)
	}
	if cv.With("ok") != nil || gv.With("mem") != nil || hv.With("before") != nil {
		t.Fatal("nil vec resolved a non-nil series")
	}

	c.Inc()
	c.Add(2)
	g.Set(3)
	h.Observe(0.5)
	h.ObserveTraced(0.5, "00000000000000ab")
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Errorf("nil handles read %v/%v/%v, want zeros", c.Value(), g.Value(), h.Count())
	}

	var j *Journal
	j.Emit(Event{T: 1, Span: SpanRound, Phase: PhaseBegin})
	if allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(0.5)
		j.Emit(Event{T: 1, Span: SpanMove, Phase: PhaseEnd, Move: &MoveEvent{Seq: 1}})
	}); allocs != 0 {
		t.Errorf("telemetry-off calls allocate %v per run, want 0", allocs)
	}
}
