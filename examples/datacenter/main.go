// Datacenter: the paper's headline scenario at realistic scale. A
// heterogeneous 120-machine fleet at 88% static fill is rebalanced by the
// greedy baseline, swap-based local search, SRA without exchange, and SRA
// with 4 borrowed machines — showing how borrowed vacancy unlocks balance
// that in-place methods cannot reach in stringent environments.
package main

import (
	"fmt"
	"log"

	"rexchange/internal/baseline"
	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/workload"
)

func main() {
	cfg := workload.RealisticConfig()
	cfg.Machines = 120
	cfg.Shards = 2400
	cfg.Seed = 7
	inst, err := workload.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	p := inst.Placement
	before := p.Report()
	fmt.Printf("%-14s maxU=%.4f imbalance=%.4f cv=%.4f\n",
		"initial", before.MaxUtil, before.Imbalance, before.CV)

	g := baseline.Greedy(p, baseline.Config{})
	fmt.Printf("%-14s maxU=%.4f imbalance=%.4f moves=%d\n",
		"greedy", g.After.MaxUtil, g.After.Imbalance, g.MovedShards)

	ls := baseline.LocalSearch(p, baseline.Config{AllowSwaps: true})
	fmt.Printf("%-14s maxU=%.4f imbalance=%.4f moves=%d\n",
		"local-search", ls.After.MaxUtil, ls.After.Imbalance, ls.MovedShards)

	scfg := core.DefaultConfig()
	scfg.Iterations = 2000
	s0, err := core.New(scfg).Solve(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s maxU=%.4f imbalance=%.4f moves=%d\n",
		"sra (k=0)", s0.After.MaxUtil, s0.After.Imbalance, s0.MovedShards)

	// Borrow 4 average-shaped exchange machines.
	pk, err := cluster.BorrowExchange(p, 4)
	if err != nil {
		log.Fatal(err)
	}
	s4, err := core.New(scfg).Solve(pk)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s maxU=%.4f imbalance=%.4f moves=%d staged=%d returned=%d\n",
		"sra (k=4)", s4.After.MaxUtil, s4.After.Imbalance,
		s4.MovedShards, s4.Plan.Staged, len(s4.Returned))

	fmt.Printf("\nexchange advantage over local search: %.1f%% lower peak utilization\n",
		100*(ls.After.MaxUtil-s4.After.MaxUtil)/ls.After.MaxUtil)
}
