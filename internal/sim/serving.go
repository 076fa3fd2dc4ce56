// Package sim simulates a search cluster serving a query trace over a given
// placement: fan-out to every serving machine, FIFO multi-server queues per
// machine, static / round-robin / least-loaded replica routing. It supplies
// the latency evidence for experiments F5 and F8: better balance → less
// queueing on hot machines → lower tail latency, which is the operational
// phenomenon motivating the paper. It is serving-only: executing a
// migration plan under bandwidth and concurrency limits is the job of
// ctl.Executor (offline through ctl.ExecutePlan).
package sim

import (
	"fmt"
	"sort"

	"rexchange/internal/cluster"
	"rexchange/internal/stats"
	"rexchange/internal/workload"
)

// timeEps is the tolerance for comparing simulated timestamps: two replicas
// whose earliest-free times agree within it are tied and fall through to the
// committed-time tie-break.
const timeEps = 1e-9

// Routing selects how queries pick among replicas of a logical shard
// (shards sharing a cluster.Shard.Group).
type Routing int

// Routing policies.
const (
	// RouteStatic spreads each shard's load onto its hosting machine
	// statically — the aggregate model used for unreplicated fleets.
	RouteStatic Routing = iota
	// RouteRoundRobin alternates queries across a group's replicas.
	RouteRoundRobin
	// RouteLeastLoaded sends each query to the replica whose machine can
	// start it soonest (join-the-shortest-queue).
	RouteLeastLoaded
)

// String names the routing policy.
func (r Routing) String() string {
	switch r {
	case RouteStatic:
		return "static"
	case RouteRoundRobin:
		return "round-robin"
	case RouteLeastLoaded:
		return "least-loaded"
	default:
		return "routing(?)"
	}
}

// Config parameterizes the serving simulation.
type Config struct {
	// Cores is the number of parallel servers per machine.
	Cores int
	// WorkScale converts (shard load × query cost) into seconds of
	// service time on a speed-1 machine.
	WorkScale float64
	// Routing selects replica routing for grouped shards; ignored when
	// the cluster has no replica groups.
	Routing Routing
	// SLA is the latency objective in seconds; queries slower than this
	// count into Report.SLAMissFrac. Zero disables SLA accounting.
	SLA float64
}

// DefaultConfig returns serving parameters that put a default workload
// near 60-70% average utilization.
func DefaultConfig() Config {
	return Config{Cores: 4, WorkScale: 1e-4}
}

// Report summarizes one serving simulation.
type Report struct {
	// Queries is the number of simulated queries.
	Queries int
	// MeanLatency and the percentiles are in trace time units (seconds).
	MeanLatency               float64
	P50, P95, P99, MaxLatency float64
	// MachineBusy is each machine's busy fraction over the trace duration
	// (index = MachineID; vacant machines are 0).
	MachineBusy []float64
	// MaxBusy and MeanBusy summarize MachineBusy over serving machines.
	MaxBusy, MeanBusy float64
	// SLAMissFrac is the fraction of queries exceeding Config.SLA
	// (0 when SLA accounting is disabled).
	SLAMissFrac float64
}

// Run simulates the trace against the placement. Every query produces one
// task per serving machine whose service time is proportional to the total
// load of the machine's hosted shards; the query completes when its slowest
// machine responds (scatter-gather). Machines are FIFO queues with
// Config.Cores parallel servers.
func Run(p *cluster.Placement, tr *workload.Trace, cfg Config) (*Report, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: Cores must be positive, got %d", cfg.Cores)
	}
	if cfg.WorkScale <= 0 {
		return nil, fmt.Errorf("sim: WorkScale must be positive, got %g", cfg.WorkScale)
	}
	if len(tr.Queries) == 0 {
		return nil, fmt.Errorf("sim: empty trace")
	}
	c := p.Cluster()
	nm := c.NumMachines()

	// Static per-machine work per unit query cost (ungrouped shards, and
	// grouped ones too under RouteStatic).
	staticWork := make([]float64, nm)
	// Replica groups routed per query: group → hosting machines and the
	// logical shard's full per-query work.
	type replicaGroup struct {
		machines []cluster.MachineID
		work     float64 // per unit query cost, before speed division
		rr       int
	}
	groups := map[int]*replicaGroup{}
	serving := make([]cluster.MachineID, 0, nm)
	for m := 0; m < nm; m++ {
		id := cluster.MachineID(m)
		if p.IsVacant(id) {
			continue
		}
		serving = append(serving, id)
		p.EachShardOn(id, func(s cluster.ShardID) {
			sh := &c.Shards[s]
			if sh.Group == 0 || cfg.Routing == RouteStatic {
				staticWork[m] += sh.Load * cfg.WorkScale
				return
			}
			g := groups[sh.Group]
			if g == nil {
				g = &replicaGroup{}
				groups[sh.Group] = g
			}
			g.machines = append(g.machines, id)
			g.work += sh.Load * cfg.WorkScale
		})
	}
	if len(serving) == 0 {
		return nil, fmt.Errorf("sim: placement has no serving machines")
	}
	// Route groups in sorted-ID order: map iteration order would leak into
	// the round-robin counters and the least-loaded tie-breaks, making the
	// simulated latencies depend on the run rather than the seed.
	groupIDs := make([]int, 0, len(groups))
	for gid := range groups {
		groupIDs = append(groupIDs, gid)
	}
	sort.Ints(groupIDs)
	groupList := make([]*replicaGroup, 0, len(groups))
	for _, gid := range groupIDs {
		groupList = append(groupList, groups[gid])
	}

	// FIFO multi-server queues: serverFree[m][k] is when server k of
	// machine m becomes free. Tasks are assigned in arrival order to the
	// earliest-free server, which is exactly FIFO semantics.
	serverFree := make([][]float64, nm)
	for _, m := range serving {
		serverFree[m] = make([]float64, cfg.Cores)
	}
	busy := make([]float64, nm)

	// earliestFree returns the soonest a new task could start on m, and
	// the machine's total committed server time as a tie-breaker (when
	// several replicas could start immediately, prefer the least
	// committed one).
	earliestFree := func(m cluster.MachineID, at float64) (float64, float64) {
		sf := serverFree[m]
		best := sf[0]
		committed := 0.0
		for i := 0; i < len(sf); i++ {
			if sf[i] < best {
				best = sf[i]
			}
			if sf[i] > at {
				committed += sf[i] - at
			}
		}
		if best < at {
			best = at
		}
		return best, committed
	}

	// scratch per-query work accumulator
	extra := make([]float64, nm)
	touched := make([]cluster.MachineID, 0, nm)

	latencies := make([]float64, len(tr.Queries))
	for qi, q := range tr.Queries {
		// route replica groups
		touched = touched[:0]
		for _, g := range groupList {
			var pick cluster.MachineID
			switch cfg.Routing {
			case RouteLeastLoaded:
				pick = g.machines[0]
				bestEF, bestCom := earliestFree(pick, q.At)
				for _, m := range g.machines[1:] {
					ef, com := earliestFree(m, q.At)
					if ef < bestEF || (stats.AlmostEqual(ef, bestEF, timeEps) && com < bestCom) {
						pick, bestEF, bestCom = m, ef, com
					}
				}
			default: // RouteRoundRobin
				pick = g.machines[g.rr%len(g.machines)]
				g.rr++
			}
			if extra[pick] == 0 {
				touched = append(touched, pick)
			}
			extra[pick] += g.work
		}

		done := q.At
		for _, m := range serving {
			work := staticWork[m] + extra[m]
			if work == 0 {
				continue
			}
			service := work * q.Cost / c.Machines[m].Speed
			// earliest-free server
			sf := serverFree[m]
			k := 0
			for i := 1; i < len(sf); i++ {
				if sf[i] < sf[k] {
					k = i
				}
			}
			start := q.At
			if sf[k] > start {
				start = sf[k]
			}
			finish := start + service
			sf[k] = finish
			busy[m] += service
			if finish > done {
				done = finish
			}
		}
		latencies[qi] = done - q.At
		for _, m := range touched {
			extra[m] = 0
		}
	}

	// Busy fractions are normalized by the span the servers were actually
	// observable: traces without an explicit Duration used to fall back to
	// the last *arrival* time, but committed service extends past it — tasks
	// arriving near the end still run to completion — so busy/(duration·cores)
	// could exceed 1.0. Normalizing by the latest task finish (never less
	// than a declared Duration) keeps every fraction in [0, 1].
	duration := tr.Duration
	for _, m := range serving {
		for _, f := range serverFree[m] {
			if f > duration {
				duration = f
			}
		}
	}
	if duration <= 0 {
		duration = 1 // no declared span and no work: fractions are all zero
	}
	rep := &Report{
		Queries:     len(tr.Queries),
		MeanLatency: stats.Mean(latencies),
		MachineBusy: make([]float64, nm),
	}
	ps := stats.Percentiles(latencies, 50, 95, 99, 100)
	rep.P50, rep.P95, rep.P99, rep.MaxLatency = ps[0], ps[1], ps[2], ps[3]
	if cfg.SLA > 0 {
		miss := 0
		for _, l := range latencies {
			if l > cfg.SLA {
				miss++
			}
		}
		rep.SLAMissFrac = float64(miss) / float64(len(latencies))
	}
	var busyVals []float64
	for _, m := range serving {
		// busy fraction normalized by cores (a fully loaded machine keeps
		// all servers occupied for the whole trace)
		frac := busy[m] / (duration * float64(cfg.Cores))
		rep.MachineBusy[m] = frac
		busyVals = append(busyVals, frac)
	}
	rep.MaxBusy = stats.Max(busyVals)
	rep.MeanBusy = stats.Mean(busyVals)
	return rep, nil
}
