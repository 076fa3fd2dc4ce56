package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Names are "<layer>.<what>"; Parent indexes the enclosing span, -1
// at the root. Times are host nanoseconds since the tracer started.
type span struct {
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced configuration: every method is a no-op, so timed repetitions
// pay one nil check per seam and nothing else.
type tracer struct {
	workload string
	rep      int
	t0       time.Time
	spans    []span
	open     []int // stack of open span indices
}

func newTracer(workload string, rep int) *tracer {
	return &tracer{workload: workload, rep: rep, t0: time.Now()}
}

// now is the tracer's clock: host nanoseconds since it started.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Workload: t.workload, Rep: t.rep, Name: name, Parent: parent, Start: t.now()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// add records a span whose interval was observed after the fact, as a
// child of the innermost open span.
func (t *tracer) add(name string, start, end int64) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	return t.addUnder(parent, name, start, end)
}

// addUnder is add with the parent named.
func (t *tracer) addUnder(parent int, name string, start, end int64) int {
	t.spans = append(t.spans, span{Workload: t.workload, Rep: t.rep, Name: name, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// layerOf is the module name a span is charged to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the durations of its direct children.
func selfTimes(spans []span) map[string]float64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// totalTimes returns, per span name, the summed duration in seconds and
// the number of spans.
func totalTimes(spans []span) (map[string]float64, map[string]int) {
	total, count := make(map[string]float64), make(map[string]int)
	for _, s := range spans {
		total[s.Name] += float64(s.End-s.Start) / 1e9
		count[s.Name]++
	}
	return total, count
}

// layerCoverage is the share of the root span's duration that is self time
// of spans charged to a program layer rather than to the harness.
func layerCoverage(spans []span) float64 {
	if len(spans) == 0 || spans[0].End <= spans[0].Start {
		return 0
	}
	covered := 0.0
	for name, s := range selfTimes(spans) {
		if layerOf(name) != "harness" {
			covered += s
		}
	}
	return covered / (float64(spans[0].End-spans[0].Start) / 1e9)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
