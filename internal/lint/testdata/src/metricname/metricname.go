// Fixture for the metricname analyzer: metric names registered on an
// internal/obs Registry must be rex_-prefixed snake_case string literals.
package metricname

import (
	"fmt"

	"rexchange/internal/obs"
)

const goodConst = "rex_from_const_total"

func register(reg *obs.Registry, shard int) {
	// Literal rex_ snake_case names are fine, across every entry point.
	reg.Counter("rex_good_total", "ok")
	reg.Gauge("rex_in_flight", "ok")
	reg.Histogram("rex_copy_seconds", "ok", obs.TimeBuckets())
	reg.CounterVec("rex_iterations_total", "ok", "outcome")
	reg.GaugeVec("rex_pressure", "ok", "resource")
	reg.HistogramVec("rex_trace_span_seconds", "ok", obs.TimeBuckets(), "op")
	reg.Counter(goodConst, "constant expressions are literals too")

	reg.Counter("moves_total", "no prefix")
	reg.Gauge("rex_InFlight", "camel case")
	reg.Counter("rex__double_total", "doubled _")
	reg.Counter("rex_trailing_", "trailing _")
	reg.CounterVec("rex-dashed", "dashes", "outcome")
	reg.HistogramVec("rex_TraceSpans", "camel", obs.TimeBuckets(), "op")

	// Runtime-computed names defeat static and CI checks alike.
	reg.Counter(fmt.Sprintf("rex_shard_%d_total", shard), "dynamic")
	name := "rex_runtime_total"
	name += ""
	reg.Gauge(name, "variable")
}

// Unrelated methods named like registration entry points stay quiet.
type fake struct{}

func (fake) Counter(name, help string) {}

func other() {
	fake{}.Counter("whatever", "not a registry")
}
