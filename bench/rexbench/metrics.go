package main

import "rexchange/internal/lint"

// The vocabulary of the benchmark: workloads, end-to-end metrics and
// per-layer metrics by name. BENCHMARK.json at the module root lists the
// same names and bounds (TestSchemaMatchesBenchmarkJSON pins the two
// together).

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"offline_tight", "the paper's experiment: one 4000-iteration SRA solve at fill 0.92 with K=8 exchange machines; solver-bound, no simulator, no journal"},
	{"sim_steady", "event loop only: a stable-queue baseline campaign in which no solve triggers; des and arrival generation do the work, core none"},
	{"campaign_closed_loop", "the product as rexsim users run it, obs off: drift, a re-solve every round, migration under load; every layer but obs and lint takes part"},
	{"campaign_traced", "the same loop with registry, journal and full trace sampling on; the obs write path is the majority of the wall here only"},
	{"journal_replay", "the obs read side: ReadJournal, BuildTraces, CriticalPath, Blame and Top over 300000 events of a traced campaign, as rextrace does"},
	{"fleet_partitioned", "scale: SolvePartitioned with 16 partitions over a 10000-machine, 150000-shard fleet; views, exchange phase, goroutine fan-out"},
	{"lint_module", "rexlint over the module at the commit under test, cold in a fresh process each repetition, normalised by lines analysed"},
}

// metricSpec names one metric. Exact marks numbers that repeat bit for bit
// for a fixed seed, so any difference is a behaviour change.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is BENCHMARK.json's: the share of the parent's median by which
	// the driver lets the metric worsen. The driver measures every run on
	// another seed, so it sits above the spread across inputs.
	Bound float64
	// Same is the bound `rexbench -compare` applies, between two result
	// files of one seed; these are the issue's.
	Same  float64
	Exact bool
	// Floor is an absolute difference `rexbench -compare` does not judge:
	// a set-up of two milliseconds moves by a quarter on nothing at all.
	Floor float64
}

// endToEnd are the metrics the driver gates: every workload reports each
// of them on an untraced run, and none is ever zero. That contract is why
// the issue's workload-specific throughputs (events_per_s, iters_per_s,
// journal_mb_per_s, lint_klines_per_s) are the one metric work_per_s,
// whose unit of work is the workload's own, and why memory and the
// deterministic outcome numbers are reported with the layers instead.
//
// Two runs of one seed agree within 5% on a quiet host, so -compare keeps
// the issue's 10% and 15%. The driver's bound has to sit three times above
// the spread over ten seeds, and that spread comes from the inputs, not the
// host: one 4000-iteration solve takes 6% more or less time from seed to
// seed (interquartile, offline_tight) and a campaign of eight solves 8%
// (campaign_closed_loop), while repetitions of one input agree to 0.3%.
// Three times 8.2% is the contract's maximum. Measuring three inputs per
// run and taking their median or mean was tried and spread no less (7.6%
// at worst), because a slow spell of the host then lands on an input's
// only repetition.
var endToEnd = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Same: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Same: 0.15, Floor: 0.05},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Same: 0.10},
}

// memory is measured on the same repetitions as the end-to-end metrics
// and gated by `rexbench -compare` only, where both sides ran the same
// seed and allocation repeats to a hundredth of a percent. Across seeds it
// does not: the solver keeps every improving placement alive until it
// returns and how many there are depends on the trajectory, so allocation
// spreads 27% on offline_tight and 28% on campaign_closed_loop and peak
// RSS 19% and 11%, which no bound the contract allows sits three times
// above. Peak RSS is a high-water mark and also moves by up to a fifth
// between same-seed runs of the collector-heavy workloads (the pacer lets
// the heap reach between one and two times what is live, depending on
// where its cycles fall), hence 25% where the issue said 10%.
var memory = []metricSpec{
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Same: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Same: 0.05},
}

// outcomes are what the program computed rather than what it cost. They
// repeat exactly for a fixed seed; simulated seconds carry the unit sim_s.
var outcomes = []metricSpec{
	{Name: "final_imbalance", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "plan_moves", Unit: "count", Better: "lower", Exact: true},
	{Name: "query_p99_s", Unit: "sim_s", Better: "lower", Exact: true},
	{Name: "during_p99_s", Unit: "sim_s", Better: "lower", Exact: true},
	{Name: "fail_share", Unit: "ratio", Better: "lower", Exact: true},
}

var (
	destroyOps = []string{"random", "worst", "related", "drain"}
	repairOps  = []string{"greedy", "regret"}
)

// layers are the metrics of single layers, in the order the README gives
// them; perLayer is everything a traced run reports.
var (
	layers   = buildLayers()
	perLayer = append(append(append([]metricSpec(nil), outcomes...), memory...), layers...)
)

func buildLayers() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, exact bool, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better, Exact: exact})
		}
	}
	add("s", "lower", false, "workload.generate_s", "workload.trace_gen_s")
	add("ns", "lower", false, "workload.arrivals_ns_per_arrival")
	add("1/s", "higher", true, "workload.arrivals_per_s_offered")

	add("s", "lower", false, "cluster.from_assignment_s", "cluster.clone_s",
		"cluster.partition_s", "cluster.view_build_s", "cluster.view_apply_s")
	add("ns", "lower", false, "cluster.txn_ns_per_move")

	add("s", "lower", false, "core.solve_s")
	add("count", "higher", true, "core.iterations")
	add("ratio", "higher", true, "core.accept_ratio")
	add("ratio", "lower", true, "core.repair_fail_ratio")
	add("count", "lower", true, "core.plan_fallbacks", "core.failed_restarts")
	for _, d := range destroyOps {
		for _, r := range repairOps {
			add("count", "higher", true, "core.op."+d+"."+r+".iters")
		}
	}
	for _, op := range append(append([]string(nil), destroyOps...), repairOps...) {
		add("1/s", "higher", false, "core.op."+op+".iters_per_s")
	}
	add("ns", "lower", false, "core.evaluate_ns")
	add("count", "lower", true, "core.partition_rounds", "core.partition_resolves",
		"core.exchange_shard_moves", "core.exchange_vacant_trades", "core.failed_partitions")
	add("s", "lower", false, "core.partitioned_gomaxprocs1_s")
	add("ratio", "higher", false, "core.parallel_speedup")

	add("s", "lower", false, "plan.build_s")
	add("us", "lower", false, "plan.us_per_move")
	add("count", "lower", true, "plan.moves", "plan.staged_hops")
	add("disk", "lower", true, "plan.bytes_moved")
	add("s", "lower", false, "plan.validate_s")

	add("s", "lower", false, "ctl.run_s", "ctl.self_s")
	add("count", "lower", true, "ctl.rounds", "ctl.solves", "ctl.round_errors",
		"ctl.moves_dispatched", "ctl.moves_completed", "ctl.moves_aborted",
		"ctl.move_failures", "ctl.peak_parallel")
	add("s", "lower", false, "ctl.exec_drain_s")
	add("us", "lower", false, "ctl.exec_us_per_move")

	add("s", "lower", false, "des.new_s", "des.sleep_s")
	add("count", "lower", true, "des.sleep_calls", "des.events")
	add("ns", "lower", false, "des.ns_per_event")
	add("count", "lower", true, "des.events_arrival", "des.events_legdone", "des.events_window")
	add("s", "lower", false, "des.next_s", "des.move_cb_s", "des.report_s", "des.render_s")
	add("count", "higher", true, "des.queries_completed")
	add("count", "lower", true, "des.queries_dropped", "des.in_flight_end")
	add("sim_s", "lower", true, "des.sim_seconds")

	add("bytes", "lower", true, "obs.journal_bytes")
	add("count", "lower", true, "obs.journal_events")
	add("MB/s", "higher", false, "obs.journal_write_mb_per_s")
	add("ns", "lower", false, "obs.emit_ns_per_event")
	add("s", "lower", false, "obs.exposition_s")
	add("bytes", "lower", false, "obs.exposition_bytes")
	add("ratio", "lower", false, "obs.overhead_ratio")
	add("s", "lower", false, "obs.read_s")
	add("MB/s", "higher", false, "obs.read_mb_per_s")
	add("s", "lower", false, "obs.build_traces_s", "obs.analyse_s")
	add("count", "lower", true, "obs.traces", "obs.spans")

	add("s", "lower", false, "lint.load_s", "lint.program_s", "lint.analyzers_s")
	// lint.Analyzers order: a lazily shared pass (call graph, summaries,
	// value flow) is charged to the first analyzer that triggers it.
	for _, a := range lint.Analyzers("rexchange") {
		add("s", "lower", false, "lint.analyzer."+a.Name+"_s")
	}
	add("count", "lower", false, "lint.packages")
	add("klines", "lower", false, "lint.klines")
	add("count", "lower", true, "lint.diagnostics")

	add("ratio", "lower", false, "harness.trace_overhead_ratio")
	add("ratio", "higher", false, "harness.layer_coverage")
	return out
}

// untraced is what an untraced run measures: the gated metrics and memory.
var untraced = append(append([]metricSpec(nil), endToEnd...), memory...)

// specs indexes every metric by name.
var specs = func() map[string]metricSpec {
	m := make(map[string]metricSpec)
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, spec := range list {
			m[spec.Name] = spec
		}
	}
	return m
}()

// values maps metric names to numbers for one repetition or one run.
type values map[string]float64
