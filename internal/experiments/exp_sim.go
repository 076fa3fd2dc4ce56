package experiments

import (
	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/ctl"
	"rexchange/internal/des"
	"rexchange/internal/invindex"
	"rexchange/internal/stats"
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
		Columns: []string{"placement", "maxBusy", "meanBusy", "mean", "p50", "p99", "p99.9"},
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
	shards, err := si.ProfileShards(queries)
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

	// 3. serve the same trace on both placements, calibrated so that the
	// hottest machine of the initial placement sits just below saturation
	// — the regime where imbalance hurts tails.
	trace, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: float64(sc.sel(20, 120)), BaseRate: 30,
		DiurnalAmp: 0.3, Period: 60, CostMu: 0, CostSigma: 0.4, Seed: 29,
	})
	if err != nil {
		return nil, err
	}
	simCfg := des.Config{TargetUtil: 0.9 / res.Before.Imbalance, CostSigma: 0.4, Seed: 29}
	for _, pl := range []struct {
		name string
		p    *cluster.Placement
	}{{"initial", pk}, {"rebalanced", res.Final}} {
		sim, err := des.New(simCfg, pl.p, trace)
		if err != nil {
			return nil, err
		}
		sim.Sleep(trace.Duration)
		var busy []float64 // serving machines only
		for m, b := range sim.Busy() {
			if !pl.p.IsVacant(cluster.MachineID(m)) {
				busy = append(busy, b)
			}
		}
		lat := sim.Report().All
		tbl.AddRow(pl.name, stats.Max(busy), stats.Mean(busy), lat.Mean, lat.P50, lat.P99, lat.P999)
	}

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
		Columns: []string{"placement", "routing", "maxBusy", "mean", "p50", "p99", "p99.9"},
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
	for _, pl := range []struct {
		name string
		p    *cluster.Placement
	}{{"initial", pk}, {"rebalanced", res.Final}} {
		for _, routing := range []des.Routing{des.RouteStatic, des.RouteRoundRobin, des.RouteLeastLoaded} {
			sim, err := des.New(des.Config{
				TargetUtil: 0.9 / res.Before.Imbalance, CostSigma: 0.4, Seed: 47, Routing: routing,
			}, pl.p, trace)
			if err != nil {
				return nil, err
			}
			sim.Sleep(trace.Duration)
			lat := sim.Report().All
			tbl.AddRow(pl.name, routing.String(), stats.Max(sim.Busy()), lat.Mean, lat.P50, lat.P99, lat.P999)
		}
	}
	return tbl, nil
}
