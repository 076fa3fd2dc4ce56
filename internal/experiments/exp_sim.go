package experiments

import (
	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/ctl"
	"rexchange/internal/invindex"
	"rexchange/internal/sim"
	"rexchange/internal/workload"
)

// F5LatencySim builds a search cluster from real inverted-index shard
// profiles, simulates query serving before and after an SRA rebalance, and
// reports the latency distribution shift plus the cost of executing the
// migration itself.
func F5LatencySim(sc Scale) (*Table, error) {
	tbl := &Table{
		ID:      "F5",
		Title:   "Serving latency before vs after rebalancing (simulated cluster)",
		Columns: []string{"placement", "maxBusy", "meanBusy", "p50", "p95", "p99", "mean"},
	}

	// 1. corpus → sharded index → measured shard profiles
	corpusCfg := invindex.DefaultCorpusConfig()
	corpusCfg.Docs = sc.sel(1200, 8000)
	corpusCfg.Vocab = sc.sel(1500, 20000)
	docs, err := invindex.GenerateCorpus(corpusCfg)
	if err != nil {
		return nil, err
	}
	numShards := sc.sel(48, 240)
	si, err := invindex.BuildSharded(docs, numShards)
	if err != nil {
		return nil, err
	}
	queryCfg := invindex.DefaultQueryConfig()
	queryCfg.Vocab = corpusCfg.Vocab
	queryCfg.Queries = sc.sel(100, 400)
	queries, err := invindex.GenerateQueries(queryCfg)
	if err != nil {
		return nil, err
	}
	shards, err := si.ProfileShards(invindex.DefaultProfileConfig(queries))
	if err != nil {
		return nil, err
	}

	// 2. pack onto machines, borrow exchange machines, rebalance
	machines := sc.sel(8, 24)
	p, err := invindex.ClusterFromProfiles(shards, machines, 0.8, 801)
	if err != nil {
		return nil, err
	}
	pk, err := cluster.BorrowExchange(p, 2)
	if err != nil {
		return nil, err
	}
	res, err := core.New(solverConfig(sc.sel(300, 2500), 23)).Solve(pk)
	if err != nil {
		return nil, err
	}

	// 3. simulate the same trace against both placements
	// Scale work so that the hottest machine of the initial placement sits
	// just below saturation — the regime where imbalance hurts tails.
	trace, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: float64(sc.sel(20, 120)), BaseRate: 30,
		DiurnalAmp: 0.3, Period: 60, CostMu: 0, CostSigma: 0.4, Seed: 29,
	})
	if err != nil {
		return nil, err
	}
	simCfg := sim.Config{Cores: 4, WorkScale: 0.9 * 4 / (30 * res.Before.MaxUtil)}

	beforeRep, err := sim.Run(pk, trace, simCfg)
	if err != nil {
		return nil, err
	}
	afterRep, err := sim.Run(res.Final, trace, simCfg)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("initial", beforeRep.MaxBusy, beforeRep.MeanBusy,
		beforeRep.P50, beforeRep.P95, beforeRep.P99, beforeRep.MeanLatency)
	tbl.AddRow("rebalanced", afterRep.MaxBusy, afterRep.MeanBusy,
		afterRep.P50, afterRep.P95, afterRep.P99, afterRep.MeanLatency)

	// 4. migration cost of getting there (columns reused: the row label
	// names each cell in order)
	mig, makespan, err := ctl.ExecutePlan(pk, res.Plan, ctl.MigrationConfig{
		Bandwidth: 50, Concurrency: 4,
	})
	if err != nil {
		return nil, err
	}
	tbl.AddRow("migration[sec/moves/bytes/peak]", "-", "-",
		makespan, float64(mig.Completed), mig.BytesMoved, float64(mig.PeakParallel))
	return tbl, nil
}

// F8ReplicaRouting extends F5 to replicated fleets: with every logical
// shard held by two replicas, how much tail latency do the query-routing
// policy and the rebalance each contribute?
func F8ReplicaRouting(sc Scale) (*Table, error) {
	tbl := &Table{
		ID:      "F8",
		Title:   "Replica routing × rebalancing (tail latency) — extension",
		Columns: []string{"placement", "routing", "maxBusy", "p50", "p95", "p99"},
	}
	gen := workload.DefaultConfig()
	gen.Machines = sc.sel(12, 40)
	gen.Shards = sc.sel(60, 300) // logical shards; ×2 replicas
	gen.Replicas = 2
	gen.TargetFill = 0.8
	gen.Seed = 1301
	inst, err := workload.Generate(gen)
	if err != nil {
		return nil, err
	}
	pk, err := cluster.BorrowExchange(inst.Placement, 2)
	if err != nil {
		return nil, err
	}
	res, err := core.New(solverConfig(sc.sel(300, 2500), 43)).Solve(pk)
	if err != nil {
		return nil, err
	}
	trace, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: float64(sc.sel(20, 90)), BaseRate: 30,
		DiurnalAmp: 0.25, Period: 45, CostMu: 0, CostSigma: 0.4, Seed: 47,
	})
	if err != nil {
		return nil, err
	}
	workScale := 0.9 * 4 / (30 * res.Before.MaxUtil)
	for _, pl := range []struct {
		name string
		p    *cluster.Placement
	}{{"initial", pk}, {"rebalanced", res.Final}} {
		for _, routing := range []sim.Routing{sim.RouteStatic, sim.RouteRoundRobin, sim.RouteLeastLoaded} {
			rep, err := sim.Run(pl.p, trace, sim.Config{
				Cores: 4, WorkScale: workScale, Routing: routing,
			})
			if err != nil {
				return nil, err
			}
			tbl.AddRow(pl.name, routing.String(), rep.MaxBusy, rep.P50, rep.P95, rep.P99)
		}
	}
	return tbl, nil
}
