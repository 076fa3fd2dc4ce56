// Package obs is the control plane's telemetry layer: a typed,
// allocation-conscious metric registry rendered in the Prometheus text
// exposition format, a structured JSONL event journal for replayable
// traces of controller/executor activity, and a promlint-style validator
// over exposition output. Everything is standard library only.
//
// The registry holds three metric kinds — monotone Counters, settable
// Gauges, and fixed-bucket Histograms — each available plain or with a
// fixed label set (CounterVec/GaugeVec). All mutation paths are atomic:
// hot loops (the solver's LNS iterations, the migration executor's
// dispatch path) update metrics lock-free, and the only locks are taken
// on first-time label resolution and at render time. Renders are
// deterministic: families sort by name, series by label values, and
// floats use the shortest round-trip form with NaN/+Inf/-Inf spelled the
// way Prometheus parsers expect.
package obs

import (
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 with atomic Add/Store/Load, stored as IEEE bits.
type atomicFloat struct{ bits atomic.Uint64 }

// Add atomically adds v.
func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Store atomically sets the value to v.
func (a *atomicFloat) Store(v float64) { a.bits.Store(math.Float64bits(v)) }

// Load atomically reads the value.
func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing metric. Like every handle kind, a
// nil *Counter is valid and does nothing — what a nil Registry hands out —
// so instrumentation sites need no telemetry-on guard.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add increases the counter by v. Negative v panics: counters are
// monotone by contract and a silent decrease corrupts rate() queries.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	if v < 0 {
		panic(fmt.Sprintf("obs: counter decreased by %g", v))
	}
	c.v.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metric kinds as they appear on # TYPE lines.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// child is one labelled series of a family, holding exactly one of the
// typed metrics according to the family kind.
type child struct {
	vals []string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// family is one metric family: a name, help text, kind, and its series.
type family struct {
	name   string
	help   string
	kind   string
	labels []string
	bounds []float64 // histogram bucket upper bounds

	mu       sync.Mutex
	children map[string]*child // guarded by: mu
}

// newChild creates the typed series for the family kind.
func (f *family) newChild(vals []string) *child {
	ch := &child{vals: vals}
	switch f.kind {
	case kindCounter:
		ch.c = &Counter{}
	case kindGauge:
		ch.g = &Gauge{}
	case kindHistogram:
		ch.h = newHistogram(f.bounds)
	}
	return ch
}

// get resolves (creating on first use) the series for the given label
// values. The fast path is one mutex-guarded map lookup; the key string
// is only allocated when the label set is seen for the first time or the
// map must be consulted — callers on hot paths should resolve once and
// retain the typed handle.
func (f *family) get(vals []string) *child {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels, got %d values", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.children[key]
	if !ok {
		ch = f.newChild(append([]string(nil), vals...))
		f.children[key] = ch
	}
	return ch
}

// Registry holds metric families and renders them as Prometheus text
// exposition. Registration panics on a name outside rexMetricName or on a
// duplicate — metric identity is a build-time property, not a runtime
// condition. A nil *Registry is telemetry switched off: it registers
// nothing and hands out nil handles.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by: mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// rexMetricName is the project's metric naming rule: rex_ prefix,
// lowercase snake_case segments, no leading, trailing or doubled
// underscores. Every such name is also a valid Prometheus name.
var rexMetricName = regexp.MustCompile(`^rex_[a-z0-9]+(_[a-z0-9]+)*$`)

// register validates and installs a new family.
func (r *Registry) register(name, help, kind string, labels []string, bounds []float64) *family {
	if !rexMetricName.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q: want %s", name, rexMetricName))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %s", l, name))
		}
		if kind == kindHistogram && l == "le" {
			panic(fmt.Sprintf("obs: histogram %s reserves the %q label", name, l))
		}
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		bounds:   bounds,
		children: make(map[string]*child),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %s registered twice", name))
	}
	r.families[name] = f
	return f
}

// Counter registers and returns a plain counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, nil, nil).get(nil).c
}

// Gauge registers and returns a plain gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, nil, nil).get(nil).g
}

// Histogram registers and returns a plain histogram with the given bucket
// upper bounds (strictly increasing; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, nil, checkBuckets(name, buckets)).get(nil).h
}

// CounterVec is a counter family partitioned by a fixed label set.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: CounterVec %s needs at least one label", name))
	}
	return &CounterVec{r.register(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use. Resolve once outside hot loops.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(labelValues).c
}

// GaugeVec is a gauge family partitioned by a fixed label set.
type GaugeVec struct{ f *family }

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: GaugeVec %s needs at least one label", name))
	}
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(labelValues).g
}

// HistogramVec is a histogram family partitioned by a fixed label set;
// every series shares the family's bucket bounds. The "le" label is
// reserved for the bucket bound and rejected at registration.
type HistogramVec struct{ f *family }

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: HistogramVec %s needs at least one label", name))
	}
	return &HistogramVec{r.register(name, help, kindHistogram, labels, checkBuckets(name, buckets))}
}

// With returns the histogram for the given label values, creating it on
// first use. Resolve once outside hot loops.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(labelValues).h
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), deterministically: families sorted
// by name, series sorted by label values.
//
//rexlint:detsink Prometheus exposition
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writePrometheus(w, false)
}

// WritePrometheusFile renders the exposition into a new file at path, with
// histogram exemplars (OpenMetrics-style `# {trace_id="…"} value` suffixes
// on bucket lines) when asked — classic 0.0.4 scrapers may reject the
// suffixes, so callers opt in explicitly (rexsim's -metrics-exemplars
// flag). A render failure wins over the close error.
func (r *Registry) WritePrometheusFile(path string, exemplars bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	renderErr := r.writePrometheus(f, exemplars)
	closeErr := f.Close()
	if renderErr != nil {
		return renderErr
	}
	return closeErr
}

// writePrometheus renders every family, optionally with exemplars.
func (r *Registry) writePrometheus(w io.Writer, exemplars bool) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if err := f.write(w, exemplars); err != nil {
			return err
		}
	}
	return nil
}

// write renders one family. A family with no series yet (a vector no
// caller has resolved a label set of) renders nothing, as client_golang's
// Gather does: a HELP/TYPE header without samples is not a valid family.
func (f *family) write(w io.Writer, exemplars bool) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*child, 0, len(keys))
	for _, k := range keys {
		kids = append(kids, f.children[k])
	}
	f.mu.Unlock()

	if len(kids) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	for _, ch := range kids {
		var err error
		switch f.kind {
		case kindCounter:
			err = writeSample(w, f.name, f.labels, ch.vals, "", "", ch.c.Value(), nil)
		case kindGauge:
			err = writeSample(w, f.name, f.labels, ch.vals, "", "", ch.g.Value(), nil)
		case kindHistogram:
			err = ch.h.write(w, f.name, f.labels, ch.vals, exemplars)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSample renders one sample line. suffix extends the family name
// (histogram _bucket/_sum/_count); extraValue, when non-empty, is an
// "le" pair appended after the family labels; ex, when non-nil, appends
// the bucket's exemplar suffix.
func writeSample(w io.Writer, name string, labels, vals []string, suffix, extraValue string, v float64, ex *Exemplar) error {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 || extraValue != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(vals[i]))
			b.WriteByte('"')
		}
		if extraValue != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(extraValue)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(FormatFloat(v))
	if ex != nil {
		b.WriteString(` # {trace_id="`)
		b.WriteString(escapeLabel(ex.TraceID))
		b.WriteString(`"} `)
		b.WriteString(FormatFloat(ex.Value))
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// FormatFloat renders a float the way Prometheus expects: shortest
// round-trip decimal form, with the special values spelled NaN, +Inf,
// and -Inf.
func FormatFloat(x float64) string {
	switch {
	case math.IsNaN(x):
		return "NaN"
	case math.IsInf(x, +1):
		return "+Inf"
	case math.IsInf(x, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslashes, quotes, and newlines in label values.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// validMetricName reports whether name matches the Prometheus metric name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*; LintExposition applies it to scraped
// text, where names from other exporters may appear. Registration applies
// the stricter rexMetricName.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]* and
// is not a double-underscore reserved name.
func validLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
