// Command clustergen generates synthetic or realistic cluster instances
// (cluster + initial placement JSON) and query traces (CSV) for use with
// cmd/rebalance and cmd/rexd.
//
// Usage:
//
//	clustergen -machines 100 -shards 1500 -fill 0.85 -placement out.json
//	clustergen -realistic -placement real.json
//	clustergen -trace trace.csv -rate 200 -duration 120
package main

import (
	"flag"
	"fmt"
	"os"

	"rexchange/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clustergen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		machines  = flag.Int("machines", 100, "fleet size")
		shards    = flag.Int("shards", 1500, "shard population")
		fill      = flag.Float64("fill", 0.8, "static fill fraction (0,1)")
		skew      = flag.Float64("skew", 0.9, "Zipf exponent of shard loads")
		seed      = flag.Int64("seed", 1, "random seed")
		replicas  = flag.Int("replicas", 1, "replicas per logical shard (anti-affinity groups)")
		realistic = flag.Bool("realistic", false, "use the realistic datacenter profile")
		placement = flag.String("placement", "", "write cluster+placement JSON here")
		snapshot  = flag.String("snapshot", "", "write a CSV snapshot to <prefix>-machines.csv / <prefix>-shards.csv")

		trace    = flag.String("trace", "", "write a query trace CSV here")
		rate     = flag.Float64("rate", 100, "trace mean arrival rate (qps)")
		duration = flag.Float64("duration", 60, "trace duration (seconds)")
		diurnal  = flag.Float64("diurnal", 0.0, "diurnal amplitude [0,1)")
		period   = flag.Float64("period", 86400, "diurnal period (seconds)")
	)
	flag.Parse()

	if *trace != "" {
		tr, err := workload.GenerateTrace(workload.TraceConfig{
			Duration: *duration, BaseRate: *rate,
			DiurnalAmp: *diurnal, Period: *period,
			CostMu: 0, CostSigma: 0.5, Seed: *seed,
		})
		if err != nil {
			return err
		}
		if err := tr.SaveFile(*trace); err != nil {
			return err
		}
		fmt.Printf("trace: %d queries over %.0fs (%.1f qps) → %s\n",
			len(tr.Queries), tr.Duration, tr.Rate(), *trace)
	}

	if *placement == "" && *snapshot == "" {
		if *trace == "" {
			return fmt.Errorf("nothing to do: pass -placement, -snapshot, and/or -trace")
		}
		return nil
	}

	cfg := workload.DefaultConfig()
	if *realistic {
		cfg = workload.RealisticConfig()
	}
	cfg.Machines = *machines
	cfg.Shards = *shards
	cfg.TargetFill = *fill
	cfg.LoadSkew = *skew
	cfg.Seed = *seed
	cfg.Replicas = *replicas
	inst, err := workload.Generate(cfg)
	if err != nil {
		return err
	}
	rep := inst.Placement.Report()
	fmt.Printf("instance: %d machines, %d shards, fill %.2f → %s\n",
		cfg.Machines, cfg.Shards, cfg.TargetFill, rep)

	if *placement != "" {
		if err := inst.Placement.SaveFile(*placement); err != nil {
			return err
		}
		fmt.Println("placement →", *placement)
	}
	if *snapshot != "" {
		mp, sp := *snapshot+"-machines.csv", *snapshot+"-shards.csv"
		if err := workload.SaveSnapshotFiles(inst.Placement, mp, sp); err != nil {
			return err
		}
		fmt.Printf("snapshot → %s, %s\n", mp, sp)
	}
	return nil
}
