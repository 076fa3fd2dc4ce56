// Searchcluster: the full search-engine pipeline. A synthetic corpus is
// indexed into document-partitioned shards with real inverted-index
// mechanics (BM25, DAAT/MaxScore); shard resource profiles are measured
// from actual postings traversal; the profiled shards are packed onto a
// cluster; and a query trace is simulated before and after an SRA
// rebalance to show the tail-latency effect of load balance.
package main

import (
	"fmt"
	"log"

	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/ctl"
	"rexchange/internal/des"
	"rexchange/internal/invindex"
	"rexchange/internal/stats"
	"rexchange/internal/workload"
)

func main() {
	// 1. Build the corpus and the sharded index.
	corpusCfg := invindex.DefaultCorpusConfig()
	corpusCfg.Docs = 4000
	corpusCfg.Vocab = 8000
	docs, err := invindex.GenerateCorpus(corpusCfg)
	if err != nil {
		log.Fatal(err)
	}
	si, err := invindex.BuildSharded(docs, 96)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d docs into %d shards (%s ...)\n",
		corpusCfg.Docs, len(si.Shards), si.Shards[0])

	// 2. Measure shard profiles from a sample workload.
	queryCfg := invindex.DefaultQueryConfig()
	queryCfg.Vocab = corpusCfg.Vocab
	queryCfg.Queries = 300
	queries, err := invindex.GenerateQueries(queryCfg)
	if err != nil {
		log.Fatal(err)
	}
	shards, err := si.ProfileShards(queries)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Pack onto 16 machines at 80% fill and borrow 2 exchange machines.
	p, err := invindex.ClusterFromProfiles(shards, 16, 0.8, 99)
	if err != nil {
		log.Fatal(err)
	}
	pk, err := cluster.BorrowExchange(p, 2)
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Iterations = 1500
	res, err := core.New(cfg).Solve(pk)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("before:", res.Before)
	fmt.Println("after: ", res.After)

	// 4. Simulate serving a diurnal trace against both placements.
	trace, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: 60, BaseRate: 40, DiurnalAmp: 0.3, Period: 60,
		CostMu: 0, CostSigma: 0.4, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The hottest machine of the initial placement sits just below
	// saturation.
	simCfg := des.Config{TargetUtil: 0.9 / res.Before.Imbalance, CostSigma: 0.4, Seed: 5}
	fmt.Println()
	for _, pl := range []struct {
		name string
		p    *cluster.Placement
	}{{"initial:", pk}, {"rebalanced:", res.Final}} {
		sim, err := des.New(simCfg, pl.p, trace)
		if err != nil {
			log.Fatal(err)
		}
		sim.Sleep(trace.Duration)
		lat := sim.Report().All
		fmt.Printf("%-11s p50=%.4fs p99=%.4fs p99.9=%.4fs (max busy %.2f)\n",
			pl.name, lat.P50, lat.P99, lat.P999, stats.Max(sim.Busy()))
	}

	// 5. And the cost of getting there.
	mig, makespan, err := ctl.ExecutePlan(pk, res.Plan, ctl.MigrationConfig{
		Bandwidth: 50, Concurrency: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmigration: %d moves, %.1f disk units, %.1fs wall clock\n",
		mig.Completed, mig.BytesMoved, makespan)
}
