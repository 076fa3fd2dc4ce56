package ctl

import (
	"rexchange/internal/cluster"
	"rexchange/internal/obs"
	"rexchange/internal/vec"
)

// ctlMetrics bundles every control-plane metric handle registered on the
// shared registry. The controller and executor always hold one: without a
// registry every handle in it is nil, and a nil handle does nothing, so no
// instrumentation site guards on telemetry being on.
type ctlMetrics struct {
	// Controller round/solve lifecycle.
	rounds        *obs.Counter
	solves        *obs.Counter
	supersessions *obs.Counter
	plannedMoves  *obs.Counter
	execErrors    *obs.Counter
	state         *obs.Gauge
	campaign      *obs.Gauge
	lastPlanMoves *obs.Gauge
	solveSeconds  *obs.Histogram

	// Executor migration lifecycle.
	dispatched       *obs.Counter
	retries          *obs.Counter
	completed        *obs.Counter
	failures         *obs.Counter
	aborted          *obs.Counter
	cancelled        *obs.Counter
	admissionBlocked *obs.Counter
	bytesMoved       *obs.Counter
	inFlight         *obs.Gauge
	copySeconds      *obs.Histogram
}

// newCtlMetrics registers the control-plane families on reg (none when reg
// is nil).
func newCtlMetrics(reg *obs.Registry) *ctlMetrics {
	return &ctlMetrics{
		rounds: reg.Counter("rex_ctl_rounds_total",
			"Control rounds completed."),
		solves: reg.Counter("rex_ctl_solves_total",
			"Solve rounds triggered."),
		supersessions: reg.Counter("rex_ctl_supersessions_total",
			"Solves that superseded a still-draining plan."),
		plannedMoves: reg.Counter("rex_ctl_planned_moves_total",
			"Moves across every installed plan."),
		execErrors: reg.Counter("rex_ctl_exec_errors_total",
			"Executor plan failures recorded in the round history."),
		state: reg.Gauge("rex_ctl_state",
			"Controller state (0=idle, 1=solving, 2=migrating)."),
		campaign: reg.Gauge("rex_ctl_campaign",
			"Whether a rebalancing campaign is active."),
		lastPlanMoves: reg.Gauge("rex_ctl_last_plan_moves",
			"Moves in the most recently installed plan."),
		solveSeconds: reg.Histogram("rex_ctl_solve_seconds",
			"Wall-clock duration of one budgeted solve round.", obs.TimeBuckets()),

		dispatched: reg.Counter("rex_exec_dispatched_total",
			"Copy attempts started by the executor (redispatches included)."),
		retries: reg.Counter("rex_exec_retries_total",
			"Redispatches of moves whose earlier copy failed."),
		completed: reg.Counter("rex_exec_completed_total",
			"Moves committed to the live placement."),
		failures: reg.Counter("rex_exec_failures_total",
			"Copy attempts that finished in failure."),
		aborted: reg.Counter("rex_moves_aborted_total",
			"In-flight copies abandoned because a newer plan superseded them."),
		cancelled: reg.Counter("rex_exec_cancelled_total",
			"Pending or retrying moves cancelled by plan supersession."),
		admissionBlocked: reg.Counter("rex_exec_admission_blocked_total",
			"Dispatch attempts deferred by the transient admission check."),
		bytesMoved: reg.Counter("rex_exec_bytes_moved_total",
			"Disk units copied by dispatched moves."),
		inFlight: reg.Gauge("rex_exec_in_flight",
			"Moves currently in flight."),
		copySeconds: reg.Histogram("rex_exec_copy_seconds",
			"Duration of individual shard copies, successful or failed.", obs.TimeBuckets()),
	}
}

// collector publishes balance reports as gauge families. The rex_serving
// indicator lets dashboards distinguish an empty cluster (every utilization
// gauge pinned to 0) from a perfectly balanced one: a zero-serving
// placement scrapes as 0s, never as NaN.
type collector struct {
	machines  *obs.Gauge
	vacant    *obs.Gauge
	serving   *obs.Gauge
	maxUtil   *obs.Gauge
	minUtil   *obs.Gauge
	meanUtil  *obs.Gauge
	imbalance *obs.Gauge
	stddev    *obs.Gauge
	cv        *obs.Gauge
	gini      *obs.Gauge
	pressure  *obs.GaugeVec
}

// newCollector registers the balance-report families on reg.
func newCollector(reg *obs.Registry) *collector {
	return &collector{
		machines:  reg.Gauge("rex_machines", "Number of serving (non-vacant) machines."),
		vacant:    reg.Gauge("rex_vacant_machines", "Number of machines hosting no shards."),
		serving:   reg.Gauge("rex_serving", "1 when at least one machine serves shards; utilization gauges are meaningful only then."),
		maxUtil:   reg.Gauge("rex_max_util", "Highest load/speed among serving machines."),
		minUtil:   reg.Gauge("rex_min_util", "Lowest load/speed among serving machines."),
		meanUtil:  reg.Gauge("rex_mean_util", "Capacity-weighted ideal utilization."),
		imbalance: reg.Gauge("rex_imbalance", "MaxUtil/MeanUtil; 1.0 is perfect balance."),
		stddev:    reg.Gauge("rex_util_stddev", "Standard deviation of per-machine utilization."),
		cv:        reg.Gauge("rex_util_cv", "Coefficient of variation of per-machine utilization."),
		gini:      reg.Gauge("rex_util_gini", "Gini coefficient of per-machine utilization."),
		pressure:  reg.GaugeVec("rex_static_pressure", "Max used/capacity over machines, per static resource.", "resource"),
	}
}

// set republishes r onto the registered gauges. Safe for concurrent use
// with renders; each gauge updates atomically. Every gauge is overwritten,
// so a drained cluster never keeps stale (or NaN) utilization values.
func (c *collector) set(r cluster.Report) {
	c.machines.Set(float64(r.Machines))
	c.vacant.Set(float64(r.Vacant))
	c.serving.Set(boolGauge(r.Machines > 0))
	c.maxUtil.Set(r.MaxUtil)
	c.minUtil.Set(r.MinUtil)
	c.meanUtil.Set(r.MeanUtil)
	c.imbalance.Set(r.Imbalance)
	c.stddev.Set(r.StdDev)
	c.cv.Set(r.CV)
	c.gini.Set(r.Gini)
	for res := 0; res < vec.NumResources; res++ {
		c.pressure.With(vec.Resource(res).String()).Set(r.StaticPressure[res])
	}
}
