package ctl

import (
	"fmt"

	"rexchange/internal/cluster"
	"rexchange/internal/workload"
)

// LoadSource feeds the controller with per-shard load observations. Next is
// called once per control window with the window bounds in controller time;
// it returns one load value per shard of the cluster the controller was
// started with (indexed by ShardID).
//
// The interface is the seam where a real telemetry feed (query logs, a
// metrics pipeline) plugs into the control plane; the repo ships
// TraceDriftSource, which synthesizes observations by replaying a
// workload.Trace under popularity drift.
type LoadSource interface {
	Next(t0, t1 float64) ([]float64, error)
}

// TraceDriftSource derives load snapshots from a query trace plus a
// popularity random walk:
//
//   - the trace sets the *global* intensity of each window — the sum of
//     query costs arriving in [t0,t1) relative to the trace-wide average —
//     so diurnal swings in the trace show up as fleet-wide load swings;
//   - per-shard popularity drifts between windows as a multiplicative
//     lognormal random walk (workload.PerturbLoads), renormalized so the
//     relative shares shift while total base load stays put. Replicas of a
//     logical shard drift together.
//
// Windows past the trace end wrap around modulo the trace duration, so a
// finite trace can drive an arbitrarily long controller run. All randomness
// is seeded: a fixed (cluster, trace, sigma, seed) yields an identical
// observation sequence.
type TraceDriftSource struct {
	trace *workload.Trace
	cur   *cluster.Cluster
	sigma float64
	seed  int64
	round int

	// meanRate is the trace-wide cost arrival rate (Σcost / Duration),
	// the denominator of every window's relative intensity.
	meanRate float64
}

// NewTraceDriftSource builds a source over the given cluster's shard
// population. sigma is the per-window lognormal drift of shard popularity
// (0 freezes relative shares; ~0.05–0.15 models gradual drift; negative is
// rejected). The trace must have positive duration.
func NewTraceDriftSource(c *cluster.Cluster, tr *workload.Trace, sigma float64, seed int64) (*TraceDriftSource, error) {
	if tr == nil || tr.Duration <= 0 {
		return nil, fmt.Errorf("ctl: trace with positive duration required")
	}
	if sigma < 0 {
		return nil, fmt.Errorf("ctl: negative drift: sigma must be ≥ 0, got %g", sigma)
	}
	total := 0.0
	for _, q := range tr.Queries {
		total += q.Cost
	}
	return &TraceDriftSource{
		trace:    tr,
		cur:      c,
		sigma:    sigma,
		seed:     seed,
		meanRate: total / tr.Duration,
	}, nil
}

// Next returns the per-shard loads observed over [t0, t1).
func (s *TraceDriftSource) Next(t0, t1 float64) ([]float64, error) {
	if t1 < t0 {
		return nil, fmt.Errorf("ctl: load window [%g,%g) is inverted", t0, t1)
	}
	if s.sigma > 0 {
		// Large odd stride decorrelates per-round walk steps.
		s.cur = workload.PerturbLoads(s.cur, s.sigma, s.seed+int64(s.round)*0x9E3779B1)
	}
	s.round++
	intensity := s.intensity(t0, t1)
	loads := make([]float64, len(s.cur.Shards))
	for i := range s.cur.Shards {
		loads[i] = s.cur.Shards[i].Load * intensity
	}
	return loads, nil
}

// intensity returns the window's cost arrival rate relative to the trace
// mean, wrapping the window around the trace end.
func (s *TraceDriftSource) intensity(t0, t1 float64) float64 {
	if s.meanRate <= 0 || t1 <= t0 {
		return 1
	}
	dur := t1 - t0
	total := 0.0
	// Wrap into [0, Duration) and accumulate, splitting windows that cross
	// the trace end. A window longer than the whole trace counts full
	// passes first.
	D := s.trace.Duration
	for full := 0; float64(full+1)*D <= dur; full++ {
		total += s.meanRate * D
		dur -= D
	}
	start := mod(t0, D)
	if start+dur <= D {
		total += windowCost(s.trace, start, start+dur)
	} else {
		total += windowCost(s.trace, start, D)
		total += windowCost(s.trace, 0, start+dur-D)
	}
	return total / ((t1 - t0) * s.meanRate)
}

// windowCost sums the query costs arriving in [t0, t1).
func windowCost(tr *workload.Trace, t0, t1 float64) float64 {
	w := tr.Window(t0, t1)
	total := 0.0
	for _, q := range w.Queries {
		total += q.Cost
	}
	return total
}

// mod returns x modulo m in [0, m).
func mod(x, m float64) float64 {
	r := x - float64(int(x/m))*m
	if r < 0 {
		r += m
	}
	return r
}
