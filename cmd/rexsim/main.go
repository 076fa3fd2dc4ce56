// Command rexsim runs migration campaigns against the discrete-event
// cluster simulator: synthetic query traffic fans out across the fleet at
// per-query granularity while the unmodified online control plane
// observes, re-solves, and migrates — and every query's end-to-end
// latency is accounted by migration phase (before / during / after).
//
// Usage:
//
//	rexsim -machines 100 -shards 1500 -rounds 12                   # one "solve" campaign
//	rexsim -variants baseline,solve,kexchange -k 4 -report-out r.txt
//	rexsim -machines 1000 -shards 8000 -rate 2000 -rounds 10       # large-fleet campaign
//
// Everything runs on the simulator's deterministic clock: for a fixed
// seed the latency report is byte-identical across runs and GOMAXPROCS
// values, which CI exploits by diffing two runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rexchange/internal/des"
	"rexchange/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rexsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		machines = flag.Int("machines", 100, "generated fleet size")
		shards   = flag.Int("shards", 1500, "generated shard population")
		fill     = flag.Float64("fill", 0.85, "generated static fill")
		seed     = flag.Int64("seed", 1, "random seed (instance, workload, solver)")

		rounds  = flag.Int("rounds", 12, "control rounds to simulate")
		window  = flag.Float64("window", 10, "seconds per control round / measurement window")
		rate    = flag.Float64("rate", 200, "mean query arrivals per second")
		diurnal = flag.Float64("diurnal", 0.4, "diurnal amplitude of the arrival rate [0,1)")
		drift   = flag.Float64("drift", 0.3, "per-window lognormal popularity drift")

		fanout    = flag.Int("fanout", 8, "shard legs sampled per query")
		util      = flag.Float64("util", 0.6, "target mean machine busy fraction")
		drag      = flag.Float64("drag", 0.3, "fractional speed loss per outbound migration copy (negative = no drag)")
		costSigma = flag.Float64("cost-sigma", 0.5, "lognormal per-query cost spread")
		maxQueue  = flag.Int("max-queue", 0, "per-machine queue cap in legs (0 = unbounded)")

		high      = flag.Float64("high", 1.25, "imbalance high-water mark")
		low       = flag.Float64("low", 1.10, "imbalance low-water mark")
		iters     = flag.Int("iters", 400, "LNS iterations per solve round")
		restarts  = flag.Int("restarts", 2, "parallel SRA restarts per solve round")
		solveCost = flag.Float64("solve-cost", 1, "simulated seconds charged per solve")

		bandwidth = flag.Float64("bandwidth", 400, "migration bandwidth (disk units/s per move)")
		inflight  = flag.Int("inflight", 4, "max simultaneously in-flight moves")

		k          = flag.Int("k", 4, "exchange machines for the kexchange variant")
		partitions = flag.Int("partitions", 4, "partition count for the partitioned variant")
		exRounds   = flag.Int("exchange-rounds", 2, "cross-partition exchange rounds for the partitioned variant")

		traceSample = flag.Float64("trace-sample", 0, "fraction of queries traced end-to-end into the journal [0,1]")
		exemplars   = flag.Bool("metrics-exemplars", false, "append histogram trace exemplars to the metrics exposition")

		variants   = flag.String("variants", "solve", "comma-separated campaigns: baseline, solve, kexchange, partitioned")
		reportOut  = flag.String("report-out", "", "write the rendered latency reports to this file")
		eventsPath = flag.String("events", "", "write per-variant JSONL journals to <path>.<variant>")
		metricsOut = flag.String("metrics-out", "", "write per-variant Prometheus expositions to <path>.<variant>")
	)
	flag.Parse()
	// des.Config reads a zero Drag as "use the default", so -drag 0 would
	// silently run 0.3; a negative value is how drag is switched off.
	if *drag == 0 {
		return fmt.Errorf("-drag 0 would run the default 0.3; pass a negative value to disable drag")
	}

	cfg := des.CampaignConfig{
		Machines: *machines, Shards: *shards, Fill: *fill, Seed: *seed,
		Rounds: *rounds,
		Sim: des.Config{
			Fanout: *fanout, TargetUtil: *util, Window: *window,
			DriftSigma: *drift, Drag: *drag, CostSigma: *costSigma,
			MaxQueue: *maxQueue, Seed: *seed, TraceSample: *traceSample,
		},
		Rate: *rate, Diurnal: *diurnal,
		HighWater: *high, LowWater: *low,
		Iterations: *iters, Restarts: *restarts, SolveSeconds: *solveCost,
		ExchangeK: *k, Partitions: *partitions, ExchangeRounds: *exRounds,
		Bandwidth: *bandwidth, InFlight: *inflight,
	}

	var reports strings.Builder
	for _, variant := range strings.Split(*variants, ",") {
		variant = strings.TrimSpace(variant)
		if variant == "" {
			continue
		}
		vcfg := cfg
		vcfg.Registry = obs.NewRegistry()
		journal, closeJournal, err := obs.CreateJournal(variantPath(*eventsPath, variant))
		if err != nil {
			return err
		}
		vcfg.Journal = journal

		res, err := des.RunCampaign(vcfg, variant)
		if err != nil {
			closeJournal() //rexlint:ignore errignore best-effort cleanup on the error path; the campaign error wins
			return fmt.Errorf("variant %s: %w", variant, err)
		}

		fmt.Fprintf(&reports, "== %s ==\n%s", variant, res.Report.Render())
		fmt.Fprintf(&reports, "rounds %d solves %d moves %d aborted %d final-imbalance %.6f\n\n",
			res.Rounds, res.Solves, res.Moves, res.Aborted, res.Final)

		if err := closeJournal(); err != nil {
			return err
		}
		if *metricsOut != "" {
			if err := vcfg.Registry.WritePrometheusFile(variantPath(*metricsOut, variant), *exemplars); err != nil {
				return err
			}
		}
	}
	if reports.Len() == 0 {
		return fmt.Errorf("no variants selected")
	}

	fmt.Print(reports.String())
	if *reportOut != "" {
		if err := os.WriteFile(*reportOut, []byte(reports.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("report → %s\n", *reportOut)
	}
	return nil
}

// variantPath suffixes path with the variant name; empty stays empty.
func variantPath(path, variant string) string {
	if path == "" {
		return ""
	}
	return path + "." + variant
}
