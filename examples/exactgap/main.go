// Exactgap: certify SRA's solution quality on a small instance by solving
// the paper's integer program exactly with the built-in branch-and-bound
// (simplex relaxations, stdlib only) and comparing makespans.
package main

import (
	"fmt"
	"log"

	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/ip"
	"rexchange/internal/workload"
)

func main() {
	gen := workload.DefaultConfig()
	gen.Machines = 5
	gen.Shards = 14
	gen.TargetFill = 0.55
	gen.Seed = 42
	inst, err := workload.Generate(gen)
	if err != nil {
		log.Fatal(err)
	}

	// Borrow one exchange machine (K=1).
	p, err := cluster.BorrowExchange(inst.Placement, 1)
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Iterations = 2000
	res, err := core.New(cfg).Solve(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SRA:   maxU = %.6f (moved %d shards)\n", res.After.MaxUtil, res.MovedShards)

	md, err := ip.BuildModel(p.Cluster(), 1)
	if err != nil {
		log.Fatal(err)
	}
	lb, err := md.RootBound()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LP relaxation lower bound: %.6f\n", lb)

	exact, err := md.SolveExact(ip.Options{IncumbentObj: res.After.MaxUtil})
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case exact.Status == ip.Optimal:
		fmt.Printf("B&B:   maxU = %.6f (%d nodes)\n", exact.Objective, exact.Nodes)
		gap := 100 * (res.After.MaxUtil - exact.Objective) / exact.Objective
		fmt.Printf("SRA optimality gap: %.2f%%\n", gap)
	case exact.Status == ip.Infeasible && exact.Assignment == nil:
		// Every node was pruned by the SRA incumbent: SRA is optimal
		// (within tolerance) and the incumbent certifies it.
		fmt.Printf("B&B:   pruned everything below the SRA incumbent (%d nodes)\n", exact.Nodes)
		fmt.Println("SRA solution certified optimal (≤ incumbent tolerance)")
	default:
		fmt.Printf("B&B:   %s after %d nodes\n", exact.Status, exact.Nodes)
	}
}
