// Replicas: the replicated-fleet extension. Every logical shard has two
// replicas that must live on distinct machines (anti-affinity); queries
// pick a replica per routing policy. The example rebalances the fleet with
// SRA (in parallel multi-start mode) and compares tail latency across
// routing policies, before and after — showing that placement-time balance
// and query-time routing are complementary levers.
package main

import (
	"fmt"
	"log"

	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/des"
	"rexchange/internal/workload"
)

func main() {
	gen := workload.DefaultConfig()
	gen.Machines = 30
	gen.Shards = 200 // logical shards → 400 physical replicas
	gen.Replicas = 2
	gen.TargetFill = 0.8
	gen.Seed = 17
	inst, err := workload.Generate(gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d machines, %d logical shards × 2 replicas\n",
		gen.Machines, gen.Shards)

	// Borrow two exchange machines and rebalance with 4 parallel restarts.
	p, err := cluster.BorrowExchange(inst.Placement, 2)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Iterations = 1500
	res, err := core.New(cfg).SolvePartitioned(p, core.PartitionConfig{Restarts: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebalance: maxU %.4f → %.4f (%d moves, anti-affinity preserved)\n\n",
		res.Before.MaxUtil, res.After.MaxUtil, res.MovedShards)

	trace, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: 45, BaseRate: 40, DiurnalAmp: 0.3, Period: 45,
		CostSigma: 0.4, Seed: 29,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The hottest machine of the initial placement sits just below
	// saturation.
	util := 0.9 / res.Before.Imbalance

	fmt.Printf("%-12s %-14s %8s %8s %8s\n", "placement", "routing", "p50", "p99", "p99.9")
	for _, pl := range []struct {
		name string
		p    *cluster.Placement
	}{{"initial", p}, {"rebalanced", res.Final}} {
		for _, routing := range []des.Routing{
			des.RouteStatic, des.RouteRoundRobin, des.RouteLeastLoaded,
		} {
			sim, err := des.New(des.Config{
				TargetUtil: util, CostSigma: 0.4, Seed: 29, Routing: routing,
			}, pl.p, trace)
			if err != nil {
				log.Fatal(err)
			}
			sim.Sleep(trace.Duration)
			lat := sim.Report().All
			fmt.Printf("%-12s %-14s %7.3fs %7.3fs %7.3fs\n",
				pl.name, routing, lat.P50, lat.P99, lat.P999)
		}
	}
}
