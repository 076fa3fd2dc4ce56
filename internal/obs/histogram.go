package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram: cumulative bucket counts, a sum,
// and a total count, all updated atomically. Bucket bounds are fixed at
// registration; the +Inf bucket is implicit. Observe is lock-free and
// allocation-free — a linear scan over the (typically ≤ 20) bounds is
// cheaper than a branch-mispredicted binary search at these sizes.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // per-bucket (non-cumulative) observation counts
	sum    atomicFloat
	count  atomic.Uint64

	// exemplars holds the last traced observation per bucket (index
	// len(bounds) is the +Inf bucket), written by ObserveTraced and
	// rendered only by the exemplar-enabled exposition path.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one bucket of a histogram to the trace that last landed
// in it, OpenMetrics-style: the rendered bucket line gains a
// `# {trace_id="…"} value` suffix.
type Exemplar struct {
	TraceID string
	Value   float64
}

// newHistogram builds a histogram over validated bounds.
func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// checkBuckets validates bucket upper bounds at registration time.
func checkBuckets(name string, bounds []float64) []float64 {
	out := append([]float64(nil), bounds...)
	for i, b := range out {
		if math.IsNaN(b) {
			panic(fmt.Sprintf("obs: histogram %s has NaN bucket bound", name))
		}
		if i > 0 && b <= out[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bucket bounds not strictly increasing at %g", name, b))
		}
	}
	// A trailing +Inf is implicit; drop an explicit one.
	if n := len(out); n > 0 && math.IsInf(out[n-1], +1) {
		out = out[:n-1]
	}
	return out
}

// Observe records one value. The total count is incremented before the
// bucket so a concurrent render (which reads buckets first, count last)
// never sees a finite cumulative bucket exceed the +Inf bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	h.count.Add(1)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
}

// ObserveTraced records one value and remembers (trace, v) as the
// exemplar of the bucket v lands in, replacing any previous one. The
// observation itself is identical to Observe.
func (h *Histogram) ObserveTraced(v float64, trace string) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	h.count.Add(1)
	idx := len(h.bounds) // +Inf
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			idx = i
			break
		}
	}
	h.exemplars[idx].Store(&Exemplar{TraceID: trace, Value: v})
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// write renders the histogram exposition: cumulative _bucket series with
// le labels (ending in +Inf), then _sum and _count. With exemplars set,
// buckets that hold a traced observation append its
// `# {trace_id="…"} value` suffix.
func (h *Histogram) write(w io.Writer, name string, labels, vals []string, exemplars bool) error {
	ex := func(i int) *Exemplar {
		if !exemplars {
			return nil
		}
		return h.exemplars[i].Load()
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if err := writeSample(w, name, labels, vals, "_bucket", FormatFloat(b), float64(cum), ex(i)); err != nil {
			return err
		}
	}
	total := h.count.Load()
	if err := writeSample(w, name, labels, vals, "_bucket", "+Inf", float64(total), ex(len(h.bounds))); err != nil {
		return err
	}
	if err := writeSample(w, name, labels, vals, "_sum", "", h.sum.Load(), nil); err != nil {
		return err
	}
	return writeSample(w, name, labels, vals, "_count", "", float64(total), nil)
}

// TimeBuckets returns the default bucket bounds for durations in seconds,
// spanning sub-millisecond copies on the virtual clock up to multi-minute
// wall-clock migrations.
func TimeBuckets() []float64 {
	return []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}
}
