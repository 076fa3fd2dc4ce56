package metrics

import (
	"rexchange/internal/obs"
	"rexchange/internal/vec"
)

// Collector publishes balance Reports as gauge families on an obs.Registry.
// Register once, then call Set after every recomputation; the registry's
// renderer (obs.Registry.WritePrometheus) takes care of the exposition
// format. The rex_serving indicator lets dashboards distinguish an empty
// cluster (every utilization gauge pinned to 0) from a perfectly balanced
// one: a zero-serving placement scrapes as 0s, never as NaN.
type Collector struct {
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

// NewCollector registers the balance-report families on reg.
func NewCollector(reg *obs.Registry) *Collector {
	return &Collector{
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

// Set republishes r onto the registered gauges. Safe for concurrent use
// with renders; each gauge updates atomically.
func (c *Collector) Set(r Report) {
	c.machines.Set(float64(r.Machines))
	c.vacant.Set(float64(r.Vacant))
	if r.Machines > 0 {
		c.serving.Set(1)
	} else {
		// Compute already zeroes every statistic for an empty placement;
		// Set again anyway so a collector reused across snapshots can
		// never hold stale (or NaN) utilization values for a drained
		// cluster.
		c.serving.Set(0)
	}
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
