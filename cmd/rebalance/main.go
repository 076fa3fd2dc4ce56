// Command rebalance runs one end-to-end rebalancing: it loads (or
// generates) an instance, borrows K exchange machines, runs the selected
// method, prints the balance report, the move schedule summary, and the
// machines handed back as compensation.
//
// Usage:
//
//	rebalance -in placement.json -k 4
//	rebalance -generate -machines 100 -shards 1500 -fill 0.85 -k 4
//	rebalance -generate -method local-search
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"rexchange/internal/baseline"
	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/ctl"
	"rexchange/internal/plan"
	"rexchange/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rebalance:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in          = flag.String("in", "", "cluster+placement JSON (from clustergen -placement)")
		machinesCSV = flag.String("machines-csv", "", "datacenter snapshot: machines.csv (with -shards-csv)")
		shardsCSV   = flag.String("shards-csv", "", "datacenter snapshot: shards.csv (with -machines-csv)")
		generate    = flag.Bool("generate", false, "generate a synthetic instance instead of -in")
		machines    = flag.Int("machines", 100, "generated fleet size")
		shards      = flag.Int("shards", 1500, "generated shard population")
		fill        = flag.Float64("fill", 0.85, "generated static fill")
		seed        = flag.Int64("seed", 1, "random seed (generation and solver)")

		k        = flag.Int("k", 2, "exchange machines borrowed (and returned)")
		method   = flag.String("method", "sra", "sra | greedy | local-search")
		iters    = flag.Int("iters", 2500, "SRA iterations")
		restarts = flag.Int("restarts", 1, "parallel SRA restarts (best result wins)")

		simulate  = flag.Bool("simulate", false, "also simulate migration execution")
		bandwidth = flag.Float64("bandwidth", 100, "migration bandwidth (disk units/s)")
		parallel  = flag.Int("parallel", 2, "concurrent migrations")
		planOut   = flag.String("plan-out", "", "write the move schedule as JSON (replayable with rexd -plan-in)")
	)
	flag.Parse()
	if *k < 0 {
		return fmt.Errorf("-k must be non-negative, got %d", *k)
	}
	if *restarts < 0 {
		return fmt.Errorf("-restarts must be non-negative, got %d", *restarts)
	}
	// The flags read after the solve are refused before any work, not
	// after the plan has been printed.
	if *method == "sra" && *iters <= 0 {
		return fmt.Errorf("-iters must be positive, got %d", *iters)
	}
	if *simulate && *parallel <= 0 {
		return fmt.Errorf("-parallel must be positive, got %d", *parallel)
	}
	if *simulate && !(*bandwidth > 0 && !math.IsInf(*bandwidth, 1)) {
		return fmt.Errorf("-bandwidth must be positive and finite, got %g", *bandwidth)
	}

	var p *cluster.Placement
	var err error
	switch {
	case *machinesCSV != "" || *shardsCSV != "":
		if *machinesCSV == "" || *shardsCSV == "" {
			return fmt.Errorf("-machines-csv and -shards-csv must be given together")
		}
		p, err = workload.LoadSnapshotFiles(*machinesCSV, *shardsCSV)
	default:
		p, err = loadOrGenerate(*in, *generate, *machines, *shards, *fill, *seed)
	}
	if err != nil {
		return err
	}

	if p, err = cluster.BorrowExchange(p, *k); err != nil {
		return err
	}

	before := p.Report()
	fmt.Println("before:", before)

	var schedule *plan.Plan
	switch *method {
	case "sra":
		cfg := core.DefaultConfig()
		cfg.Iterations = *iters
		cfg.Seed = *seed
		res, err := core.New(cfg).SolvePartitioned(p, core.PartitionConfig{Restarts: *restarts})
		if err != nil {
			return err
		}
		schedule = res.Plan
		fmt.Println("after: ", res.After)
		fmt.Printf("search: %d iterations, %d accepted, %d repair failures, %d plan fallbacks\n",
			res.Iterations, res.Accepted, res.RepairFailures, res.PlanFallbacks)
		fmt.Printf("moved %d shards in %d steps (%d staged, %d displaced), %.1f disk units copied\n",
			res.MovedShards, res.Plan.NumMoves(), res.Plan.Staged, res.Plan.Displaced,
			res.Plan.BytesMoved(p.Cluster()))
		fmt.Print("returned machines:")
		for _, m := range res.Returned {
			fmt.Printf(" %d", m)
		}
		fmt.Println()
	case "greedy", "local-search":
		cfg := baseline.Config{Keep: *k, AllowSwaps: *method == "local-search"}
		var res *baseline.Result
		if *method == "greedy" {
			res = baseline.Greedy(p, cfg)
		} else {
			res = baseline.LocalSearch(p, cfg)
		}
		schedule = res.Plan
		fmt.Println("after: ", res.After)
		fmt.Printf("moved %d shards in %d steps\n", res.MovedShards, res.Plan.NumMoves())
	default:
		return fmt.Errorf("unknown method %q", *method)
	}

	if *planOut != "" {
		if err := schedule.SaveFile(*planOut); err != nil {
			return err
		}
		fmt.Printf("plan → %s (%d moves)\n", *planOut, schedule.NumMoves())
	}

	if *simulate && schedule.NumMoves() > 0 {
		mig, makespan, err := ctl.ExecutePlan(p, schedule, ctl.MigrationConfig{
			Bandwidth: *bandwidth, Concurrency: *parallel,
		})
		if err != nil {
			return err
		}
		fmt.Printf("migration: %.1fs wall clock, %.1f units copied, peak %d parallel\n",
			makespan, mig.BytesMoved, mig.PeakParallel)
	}
	return nil
}

func loadOrGenerate(in string, generate bool, machines, shards int, fill float64, seed int64) (*cluster.Placement, error) {
	switch {
	case in != "":
		return cluster.LoadPlacementFile(in)
	case generate:
		cfg := workload.DefaultConfig()
		cfg.Machines = machines
		cfg.Shards = shards
		cfg.TargetFill = fill
		cfg.Seed = seed
		inst, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		return inst.Placement, nil
	default:
		return nil, fmt.Errorf("pass -in FILE or -generate")
	}
}
