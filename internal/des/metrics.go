package des

import "rexchange/internal/obs"

// simMetrics are the simulator's registry families. Histogram and counter
// updates happen at query completion (atomic, lock-free); the event and
// in-flight gauges sync once per clock advance to stay off the hot path.
type simMetrics struct {
	queries      *obs.CounterVec
	latency      *obs.HistogramVec
	dropped      *obs.Counter
	events       *obs.Counter
	copiesActive *obs.Gauge
	inFlight     *obs.Gauge

	// Pre-resolved per-phase handles: label resolution takes a lock.
	qByPhase [numPhases]*obs.Counter
	hByPhase [numPhases]*obs.Histogram

	lastEvents uint64
}

// newSimMetrics registers the rex_sim_* families on reg; a nil reg yields
// nil handles, which do nothing.
func newSimMetrics(reg *obs.Registry) *simMetrics {
	m := &simMetrics{
		queries: reg.CounterVec("rex_sim_queries_total",
			"Queries completed, by migration phase.", "phase"),
		latency: reg.HistogramVec("rex_sim_query_latency_seconds",
			"End-to-end query latency (merge at slowest leg), by migration phase.",
			latencyBuckets(), "phase"),
		dropped: reg.Counter("rex_sim_queries_dropped_total",
			"Queries dropped whole at admission by a full machine queue."),
		events: reg.Counter("rex_sim_events_total",
			"Discrete events processed by the simulator."),
		copiesActive: reg.Gauge("rex_sim_copies_active",
			"Migration copies currently degrading a source machine."),
		inFlight: reg.Gauge("rex_sim_queries_in_flight",
			"Queries with at least one leg outstanding."),
	}
	for ph := PhaseBefore; ph < numPhases; ph++ {
		m.qByPhase[ph] = m.queries.With(ph.String())
		m.hByPhase[ph] = m.latency.With(ph.String())
	}
	return m
}

// latencyBuckets spans sub-millisecond cache hits through multi-second
// queue blowups during migration campaigns.
func latencyBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// observe records one completed query.
func (m *simMetrics) observe(ph Phase, latency float64) {
	m.qByPhase[ph].Inc()
	m.hByPhase[ph].Observe(latency)
}

// observeTraced records one completed sampled query, leaving its trace
// ID as the exemplar of the latency bucket it lands in.
func (m *simMetrics) observeTraced(ph Phase, latency float64, id obs.TraceID) {
	m.qByPhase[ph].Inc()
	m.hByPhase[ph].ObserveTraced(latency, id.String())
}

// syncLow refreshes the low-frequency families from simulator state.
func (m *simMetrics) syncLow(s *Sim) {
	m.events.Add(float64(s.events - m.lastEvents))
	m.lastEvents = s.events
	m.inFlight.Set(float64(s.InFlight()))
}
