// Command rexd runs the online rebalancing control plane: a continuous
// controller that replays (or observes) query load against the live
// placement, re-solves with SRA when imbalance crosses the high-water mark,
// and executes the resulting move schedule asynchronously under the
// transient resource constraint.
//
// Usage:
//
//	rexd -generate -machines 100 -shards 1500 -rounds 20          # wall clock
//	rexd -virtual -replay trace.csv -rounds 3                     # deterministic replay
//	rexd -in placement.json -plan-in plan.json -virtual           # execute a precomputed plan
//	rexd -generate -http :8080                                    # serve /status /placement /plan /metrics
//
// With -virtual the whole run is simulated on a deterministic clock and
// finishes as fast as the solver allows; without it the controller paces
// real time and the HTTP surface reports live state.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"

	"rexchange/internal/cluster"
	"rexchange/internal/ctl"
	"rexchange/internal/obs"
	"rexchange/internal/plan"
	"rexchange/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rexd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in       = flag.String("in", "", "cluster+placement JSON (default: generate)")
		machines = flag.Int("machines", 100, "generated fleet size")
		shards   = flag.Int("shards", 1500, "generated shard population")
		fill     = flag.Float64("fill", 0.85, "generated static fill")
		seed     = flag.Int64("seed", 1, "random seed (generation, drift, solver)")
		k        = flag.Int("k", 0, "exchange machines borrowed at startup")

		virtual = flag.Bool("virtual", false, "run on the deterministic virtual clock (no sleeps)")
		rounds  = flag.Int("rounds", 0, "control rounds to run (0 = until interrupted)")
		window  = flag.Float64("window", 10, "seconds per control round")

		replay  = flag.String("replay", "", "query trace CSV to replay (default: synthesize a diurnal trace)")
		rate    = flag.Float64("rate", 100, "synthesized trace: mean arrivals/second")
		diurnal = flag.Float64("diurnal", 0.6, "synthesized trace: diurnal amplitude [0,1)")
		drift   = flag.Float64("drift", 0.08, "per-window lognormal popularity drift (0 = frozen)")

		high       = flag.Float64("high", 1.25, "imbalance high-water mark (trigger re-solve)")
		low        = flag.Float64("low", 1.10, "imbalance low-water mark (stop churning)")
		iters      = flag.Int("iters", 600, "LNS iterations per solve round")
		restarts   = flag.Int("restarts", 2, "parallel SRA restarts per solve round")
		partitions = flag.Int("partitions", 0, "solve resource-shape partitions concurrently when > 1 (0/1 = whole-cluster portfolio)")
		exRounds   = flag.Int("exchange-rounds", 2, "cross-partition exchange rounds per solve (with -partitions > 1)")
		solveCost  = flag.Float64("solve-cost", 0, "virtual seconds charged per solve round")

		bandwidth = flag.Float64("bandwidth", 200, "migration bandwidth (disk units/s per move)")
		inflight  = flag.Int("inflight", 4, "max simultaneously in-flight moves")
		failRate  = flag.Float64("fail-rate", 0, "injected per-copy failure probability [0,1)")
		retries   = flag.Int("retries", 8, "max dispatch attempts per move")

		httpAddr = flag.String("http", "", "serve /status /placement /plan /metrics on this address")
		planIn   = flag.String("plan-in", "", "execute this precomputed plan JSON and exit")

		eventsPath = flag.String("events", "", "write a JSONL event journal (round/solve/move spans) to this file")
		metricsOut = flag.String("metrics-out", "", "write the final Prometheus exposition to this file on exit")
	)
	flag.Parse()
	if !(*failRate >= 0 && *failRate < 1) {
		return fmt.Errorf("-fail-rate must be in [0,1), got %g", *failRate)
	}
	if *k < 0 {
		return fmt.Errorf("-k must be non-negative, got %d", *k)
	}
	if *rounds < 0 {
		return fmt.Errorf("-rounds must be non-negative, got %d", *rounds)
	}
	if !(*window > 0 && !math.IsInf(*window, 1)) {
		return fmt.Errorf("-window must be positive and finite, got %g", *window)
	}

	p, err := loadOrGenerate(*in, *machines, *shards, *fill, *seed)
	if err != nil {
		return err
	}
	if p, err = cluster.BorrowExchange(p, *k); err != nil {
		return err
	}

	var clock ctl.Clock
	if *virtual {
		clock = ctl.NewVirtualClock()
	} else {
		clock = ctl.NewWallClock()
	}

	ecfg := ctl.ExecConfig{
		Migration:   ctl.MigrationConfig{Bandwidth: *bandwidth, Concurrency: *inflight},
		MaxAttempts: *retries,
	}
	if *failRate > 0 {
		// Deterministic injected copy failures, seeded independently of
		// the solver so -fail-rate does not change solve outcomes.
		fr := rand.New(rand.NewSource(*seed ^ 0x5DEECE66D))
		fp := *failRate
		ecfg.Failure = func(plan.Move, int) bool { return fr.Float64() < fp }
	}

	// The registry always exists — /metrics and -metrics-out render it;
	// the journal only when -events asks for one. On the virtual clock
	// the journal is bit-reproducible across runs and GOMAXPROCS.
	reg := obs.NewRegistry()
	journal, closeJournal, err := obs.CreateJournal(*eventsPath)
	if err != nil {
		return err
	}
	defer closeJournal()

	if *planIn != "" {
		if err := runPlan(p, *planIn, clock, ecfg, reg, journal); err != nil {
			return err
		}
		return finishObs(reg, journal, closeJournal, *eventsPath, *metricsOut)
	}

	tr, err := loadOrMakeTrace(*replay, *rounds, *window, *rate, *diurnal, *seed)
	if err != nil {
		return err
	}

	src, err := ctl.NewTraceDriftSource(p.Cluster(), tr, *drift, *seed+101)
	if err != nil {
		return err
	}

	cfg := ctl.DefaultConfig()
	cfg.Window = *window
	cfg.Policy = ctl.Policy{HighWater: *high, LowWater: *low}
	cfg.Budget = ctl.Budget{
		Iterations:     *iters,
		Restarts:       *restarts,
		Partitions:     *partitions,
		ExchangeRounds: *exRounds,
		SolveSeconds:   *solveCost,
	}
	cfg.Exec = ecfg
	cfg.Seed = *seed
	cfg.Registry = reg
	cfg.Journal = journal
	cfg.OnRound = func(st ctl.RoundStat) {
		line := fmt.Sprintf("round %3d t=%8.1f imbalance=%.4f max=%.4f", st.Round, st.At, st.Imbalance, st.MaxUtil)
		if st.Solved {
			line += fmt.Sprintf(" solved (%d moves, obj %.4f)", st.PlanMoves, st.Objective)
		}
		if st.Err != "" {
			line += " err=" + st.Err
		}
		fmt.Println(line)
	}

	c, err := ctl.New(cfg, clock, p, src)
	if err != nil {
		return err
	}

	if *httpAddr != "" {
		srv := &http.Server{Addr: *httpAddr, Handler: c.Handler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "rexd: http:", err)
			}
		}()
		fmt.Printf("serving /status /placement /plan /metrics on %s\n", *httpAddr)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "rexd: interrupted; stopping after this round")
		c.Stop()
	}()

	fmt.Printf("rexd: %d machines, %d shards, window %gs, band [%.2f, %.2f], budget %d×%d iters\n",
		p.Cluster().NumMachines(), p.Cluster().NumShards(), *window, *low, *high, *restarts, *iters)
	if err := c.Run(*rounds); err != nil {
		return err
	}

	rep := c.Report()
	ctr := c.ExecCounters()
	fmt.Printf("executor: %d dispatched, %d completed, %d failures, %d aborted, %.1f units moved\n",
		ctr.Dispatched, ctr.Completed, ctr.Failures, ctr.Aborted, ctr.BytesMoved)
	fmt.Printf("final imbalance=%.4f max=%.4f mean=%.4f after %d rounds, %d solves\n",
		rep.Imbalance, rep.MaxUtil, rep.MeanUtil, c.Status().Round, c.Status().Solves)
	return finishObs(reg, journal, closeJournal, *eventsPath, *metricsOut)
}

// finishObs flushes the journal (surfacing any sticky write error) and
// renders the final exposition to -metrics-out.
func finishObs(reg *obs.Registry, journal *obs.Journal, closeJournal func() error, eventsPath, metricsOut string) error {
	if journal != nil {
		if err := closeJournal(); err != nil {
			return fmt.Errorf("events %s: %w", eventsPath, err)
		}
		fmt.Printf("events: %d journal events → %s\n", journal.Len(), eventsPath)
	}
	if metricsOut != "" {
		if err := reg.WritePrometheusFile(metricsOut, false); err != nil {
			return err
		}
		fmt.Printf("metrics: exposition → %s\n", metricsOut)
	}
	return nil
}

// runPlan executes a precomputed plan against the placement with the async
// executor and prints the migration summary.
func runPlan(p *cluster.Placement, path string, clock ctl.Clock, ecfg ctl.ExecConfig, reg *obs.Registry, journal *obs.Journal) error {
	pl, err := plan.LoadFile(path)
	if err != nil {
		return err
	}
	ex, err := ctl.NewExecutor(p.Cluster(), ecfg)
	if err != nil {
		return err
	}
	ex.AttachObs(reg, journal)
	ex.SetPlan(pl)
	start := clock.Now()
	if err := ex.Tick(p, start); err != nil {
		return err
	}
	end, err := ex.Drive(p, start, math.Inf(1), ctl.SleepTo(clock))
	if err != nil {
		return err
	}
	ctr := ex.Counters()
	fmt.Printf("plan executed: %d moves in %.1fs, %d failures retried, peak %d parallel, %.1f units moved\n",
		ctr.Completed, end-start, ctr.Failures, ctr.PeakParallel, ctr.BytesMoved)
	rep := p.Report()
	fmt.Printf("final imbalance=%.4f max=%.4f mean=%.4f\n", rep.Imbalance, rep.MaxUtil, rep.MeanUtil)
	return nil
}

// loadOrGenerate builds the starting placement.
func loadOrGenerate(in string, machines, shards int, fill float64, seed int64) (*cluster.Placement, error) {
	if in != "" {
		return cluster.LoadPlacementFile(in)
	}
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
}

// loadOrMakeTrace loads the replay trace or synthesizes a diurnal one long
// enough for the requested rounds (the source wraps it when needed).
func loadOrMakeTrace(path string, rounds int, window, rate, diurnal float64, seed int64) (*workload.Trace, error) {
	if path != "" {
		return workload.LoadTraceFile(path)
	}
	dur := 600.0
	if rounds > 0 {
		dur = float64(rounds) * window
	}
	return workload.GenerateTrace(workload.TraceConfig{
		Duration:   dur,
		BaseRate:   rate,
		DiurnalAmp: diurnal,
		Period:     dur,
		CostMu:     0,
		CostSigma:  0.5,
		Seed:       seed + 7,
	})
}
