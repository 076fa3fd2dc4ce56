package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/ctl"
	"rexchange/internal/plan"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

// solveWL is the two solver workloads: offline_tight (one whole-cluster
// Solve on a generated instance with exchange machines) and
// fleet_partitioned (SolvePartitioned on a fleet built in O(shards)).
type solveWL struct {
	seed        int64
	partitioned bool

	machines, shards int
	fill             float64
	k                int // exchange machines (offline_tight)
	iterations       int
	partitions       int
	probeIterations  int

	p0    *cluster.Placement
	layer values
}

func newSolveWL(o runOpts) *solveWL {
	w := &solveWL{seed: o.seed}
	if o.workload == "fleet_partitioned" {
		w.partitioned = true
		w.machines, w.shards, w.iterations, w.partitions = 10000, 150000, 4500, 16
		if o.quick {
			w.machines, w.shards, w.iterations, w.partitions = 60, 900, 300, 4
		}
		return w
	}
	w.machines, w.shards, w.fill, w.k, w.iterations, w.probeIterations = 400, 6000, 0.92, 8, 4000, 500
	if o.quick {
		w.machines, w.shards, w.k, w.iterations, w.probeIterations = 30, 360, 2, 200, 40
	}
	return w
}

func (w *solveWL) setupLayer() values { return w.layer }

func (w *solveWL) setup() error {
	w.layer = values{}
	if w.partitioned {
		p, err := buildFleet(w.machines, w.shards, w.seed)
		w.p0 = p
		return err
	}
	wcfg := workload.DefaultConfig()
	wcfg.Machines, wcfg.Shards, wcfg.TargetFill, wcfg.Seed = w.machines, w.shards, w.fill, w.seed
	start := time.Now()
	inst, err := workload.Generate(wcfg)
	if err != nil {
		return err
	}
	w.layer["workload.generate_s"] = time.Since(start).Seconds()
	w.p0, err = withAverageExchange(inst.Placement, w.k)
	return err
}

// withAverageExchange borrows k fleet-average exchange machines, as
// des.RunCampaign's kexchange variant does.
func withAverageExchange(p *cluster.Placement, k int) (*cluster.Placement, error) {
	c := p.Cluster()
	n := float64(c.NumMachines())
	ec := c.WithExchange(k, c.TotalCapacity().Scale(1/n), c.TotalSpeed()/n)
	return cluster.FromAssignment(ec, p.Assignment())
}

// buildFleet is the O(shards) three-tier fleet of the F4 sweep
// (benchFleet in internal/core/partitioned_bench_test.go): every fifth
// machine of each shape class stays vacant, placement probability follows
// machine speed, and one shard in ten is heavy. workload.Generate's
// best-fit pass is O(shards x machines) and takes minutes at this size.
func buildFleet(machines, shards int, seed int64) (*cluster.Placement, error) {
	c := &cluster.Cluster{
		Machines: make([]cluster.Machine, machines),
		Shards:   make([]cluster.Shard, shards),
	}
	shapes := []cluster.Machine{
		{Capacity: vec.New(64, 512, 10), Speed: 1},
		{Capacity: vec.New(128, 1024, 25), Speed: 1.8},
		{Capacity: vec.New(256, 2048, 40), Speed: 3},
	}
	var slots []cluster.MachineID
	for m := 0; m < machines; m++ {
		c.Machines[m] = shapes[m%len(shapes)]
		c.Machines[m].ID = cluster.MachineID(m)
		if (m/len(shapes))%5 == 4 {
			continue
		}
		for i := 0; i < int(c.Machines[m].Speed*5); i++ { // 5, 9, 15 slots
			slots = append(slots, cluster.MachineID(m))
		}
	}
	r := rand.New(rand.NewSource(seed))
	for s := 0; s < shards; s++ {
		load := 0.05 + 0.3*r.Float64()
		if s%10 == 0 {
			load += 2 * r.Float64()
		}
		c.Shards[s] = cluster.Shard{
			ID:     cluster.ShardID(s),
			Static: vec.New(1+r.Float64(), 4+r.Float64(), 0.1),
			Load:   load,
		}
	}
	p := cluster.NewPlacement(c)
	for s := 0; s < shards; s++ {
		start := r.Intn(len(slots))
		placed := false
		for off := 0; off < len(slots) && !placed; off++ {
			placed = p.PlaceChecked(cluster.ShardID(s), slots[(start+off)%len(slots)])
		}
		if !placed {
			return nil, fmt.Errorf("fleet too tight: shard %d fits nowhere", s)
		}
	}
	return p, nil
}

func (w *solveWL) solverConfig(iterations int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Iterations = iterations
	cfg.Seed = w.seed
	return cfg
}

func (w *solveWL) partitionConfig() core.PartitionConfig {
	pc := core.DefaultPartitionConfig()
	pc.Partitions = w.partitions
	pc.ExchangeRounds = 2
	return pc
}

// solveArtifacts rides along in outcome for check and probes.
type solveArtifacts struct {
	res      *core.Result
	replayed *cluster.Placement // where plan.Validate ended
}

func (w *solveWL) solve(cfg core.Config) (*core.Result, error) {
	if w.partitioned {
		return core.New(cfg).SolvePartitioned(w.p0, w.partitionConfig())
	}
	return core.New(cfg).Solve(w.p0)
}

func (w *solveWL) warmup() (*outcome, error) { return w.rep(nil) }

func (w *solveWL) rep(t *tracer) (*outcome, error) {
	cfg := w.solverConfig(w.iterations)
	var rec *solveCounts
	if t != nil {
		rec = newSolveCounts()
		cfg.Recorder = rec
	}
	id := t.begin("core.solve")
	res, err := w.solve(cfg)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("plan.validate")
	replayed, err := res.Plan.Validate(w.p0)
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("plan.Validate: %w", err)
	}
	o := &outcome{
		work:      float64(res.Iterations),
		attempted: 1,
		failed:    res.FailedRestarts,
		digests: map[string]string{
			"assignment": shaAssignment(res.Final.Assignment()),
			"plan":       sha(fmt.Sprint(res.Plan.Moves)),
		},
		layer: values{
			"final_imbalance": res.After.Imbalance,
			"plan_moves":      float64(res.Plan.NumMoves()),
		},
		art: &solveArtifacts{res: res, replayed: replayed},
	}
	if w.partitioned {
		o.attempted = w.partitions
		o.failed = res.FailedPartitions
	}
	o.notes = append(o.notes, fmt.Sprintf("imbalance %.6f -> %.6f, %d shards moved in %d moves, %d machines returned",
		res.Before.Imbalance, res.After.Imbalance, res.MovedShards, res.Plan.NumMoves(), len(res.Returned)))
	if t != nil {
		rec.into(o.layer)
		o.layer["core.iterations"] = float64(res.Iterations)
		o.layer["core.accept_ratio"] = float64(res.Accepted) / float64(res.Iterations)
		o.layer["core.repair_fail_ratio"] = float64(res.RepairFailures) / float64(res.Iterations)
		o.layer["core.plan_fallbacks"] = float64(res.PlanFallbacks)
		o.layer["core.failed_restarts"] = float64(res.FailedRestarts)
		o.layer["core.failed_partitions"] = float64(res.FailedPartitions)
	}
	return o, nil
}

func (w *solveWL) check(g *gate, o *outcome) {
	art := o.art.(*solveArtifacts)
	checkSolve(g, w.p0, art.res, art.replayed)
}

// checkSolve is the gate over one solve result: the plan replayed from
// the initial placement lands on Final, the K returned machines are
// vacant there, and the bookkeeping of both placements is intact.
func checkSolve(g *gate, initial *cluster.Placement, res *core.Result, replayed *cluster.Placement) {
	same := replayed != nil
	if same {
		a, b := replayed.Assignment(), res.Final.Assignment()
		same = len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = a[i] == b[i]
		}
	}
	g.check(same, "plan_replay", "replaying the %d-move plan from the initial placement does not reach Result.Final", res.Plan.NumMoves())
	k := len(initial.Cluster().ExchangeMachines())
	g.check(len(res.Returned) == k, "returned_count", "%d machines returned, K = %d", len(res.Returned), k)
	for _, m := range res.Returned {
		g.check(res.Final.IsVacant(m), "returned_vacant", "returned machine %d hosts %d shards in Result.Final", m, res.Final.Count(m))
	}
	err := res.Final.CheckInvariants()
	g.check(err == nil, "invariants", "Result.Final: %v", err)
	g.check(res.Final.Feasible() && res.Final.UnassignedCount() == 0, "feasible", "Result.Final is infeasible or partial")
	g.check(res.After.Imbalance <= res.Before.Imbalance, "improved", "imbalance rose from %.6f to %.6f", res.Before.Imbalance, res.After.Imbalance)
}

func (w *solveWL) probes(o *outcome, wallS float64, m values) error {
	art := o.art.(*solveArtifacts)
	res := art.res

	// The planner alone, on the reassignment the solve found.
	start := time.Now()
	pl, err := plan.DefaultPlanner().Build(w.p0, res.Final)
	if err != nil {
		return err
	}
	m["plan.build_s"] = time.Since(start).Seconds()
	m["plan.moves"] = float64(pl.NumMoves())
	m["plan.staged_hops"] = float64(pl.Staged)
	m["plan.bytes_moved"] = pl.BytesMoved(w.p0.Cluster())
	if pl.NumMoves() > 0 {
		m["plan.us_per_move"] = m["plan.build_s"] * 1e6 / float64(pl.NumMoves())
	}

	if w.partitioned {
		return w.probesPartitioned(m)
	}
	probeRebuild(w.p0, m)
	probeTxn(w.p0, w.seed, m)

	const evals = 200
	cfg := w.solverConfig(w.iterations)
	initial := w.p0.Assignment()
	start = time.Now()
	for i := 0; i < evals; i++ {
		core.Evaluate(cfg, res.Final, initial)
	}
	m["core.evaluate_ns"] = float64(time.Since(start).Nanoseconds()) / evals

	// One operator at a time: a destroy operator with both repairs, a
	// repair operator with all four destroys.
	for _, op := range append(append([]string(nil), destroyOps...), repairOps...) {
		pcfg := w.solverConfig(w.probeIterations)
		pcfg.Operators = onlyOperator(op)
		start = time.Now()
		if _, err := core.New(pcfg).Solve(w.p0); err != nil {
			return fmt.Errorf("operator %s alone: %w", op, err)
		}
		m["core.op."+op+".iters_per_s"] = float64(w.probeIterations) / time.Since(start).Seconds()
	}
	return probeExecutor(w.p0, res.Plan, m)
}

// onlyOperator restricts the portfolio to one destroy operator (keeping
// both repairs) or one repair operator (keeping all destroys).
func onlyOperator(op string) core.OperatorSet {
	all := core.AllOperators()
	switch op {
	case "random":
		return core.OperatorSet{RandomRemove: true, GreedyRepair: true, RegretRepair: true}
	case "worst":
		return core.OperatorSet{WorstRemove: true, GreedyRepair: true, RegretRepair: true}
	case "related":
		return core.OperatorSet{RelatedRemove: true, GreedyRepair: true, RegretRepair: true}
	case "drain":
		return core.OperatorSet{DrainRemove: true, GreedyRepair: true, RegretRepair: true}
	case "greedy":
		all.RegretRepair = false
	case "regret":
		all.GreedyRepair = false
	}
	return all
}

// probeTxn times the undo journal the solver's inner loop lives on:
// batches of sixteen unchecked moves, rolled back.
func probeTxn(p0 *cluster.Placement, seed int64, m values) {
	const batches, perBatch = 2000, 16
	p := p0.Clone()
	c := p.Cluster()
	r := rand.New(rand.NewSource(seed))
	shards := make([]cluster.ShardID, perBatch)
	targets := make([]cluster.MachineID, perBatch)
	var el time.Duration
	for b := 0; b < batches; b++ {
		for i := range shards {
			shards[i] = cluster.ShardID(r.Intn(c.NumShards()))
			targets[i] = cluster.MachineID(r.Intn(c.NumMachines()))
		}
		start := time.Now()
		p.BeginTxn()
		for i := range shards {
			p.Move(shards[i], targets[i])
		}
		p.Rollback()
		el += time.Since(start)
	}
	m["cluster.txn_ns_per_move"] = float64(el.Nanoseconds()) / (batches * perBatch)
}

// probeExecutor drains the workload's own plan through a standalone
// executor on a virtual clock: the executor's cost per move without the
// simulator or the controller around it.
func probeExecutor(p0 *cluster.Placement, pl *plan.Plan, m values) error {
	if pl.NumMoves() == 0 {
		return nil
	}
	ecfg := ctl.DefaultExecConfig()
	ecfg.Migration.Bandwidth, ecfg.Migration.Concurrency = 400, 4
	live := p0.Clone()
	ex, err := ctl.NewExecutor(live.Cluster(), ecfg)
	if err != nil {
		return err
	}
	clock := ctl.NewVirtualClock()
	start := time.Now()
	ex.SetPlan(pl)
	for {
		if err := ex.Tick(live, clock.Now()); err != nil {
			return err
		}
		next, ok := ex.NextEvent(clock.Now())
		if !ok {
			break
		}
		clock.Sleep(next - clock.Now())
	}
	el := time.Since(start).Seconds()
	if got := ex.Counters().Completed; got != pl.NumMoves() {
		return fmt.Errorf("executor drained %d of %d moves", got, pl.NumMoves())
	}
	m["ctl.exec_drain_s"] = el
	m["ctl.exec_us_per_move"] = el * 1e6 / float64(pl.NumMoves())
	return nil
}

// probesPartitioned times the partitioning machinery over the workload's
// own partitioning, and solves once more on one thread so the algorithmic
// speed-up of partitioning and the parallel one are reported apart.
func (w *solveWL) probesPartitioned(m values) error {
	c := w.p0.Cluster()
	start := time.Now()
	parts := cluster.PartitionByShape(c, cluster.PartitionOptions{Target: w.partitions, MinMachines: 2})
	if err := cluster.CheckPartition(c, parts); err != nil {
		return err
	}
	m["cluster.partition_s"] = time.Since(start).Seconds()

	parent := w.p0.Clone()
	views := make([]*cluster.PlacementView, len(parts))
	start = time.Now()
	for i, part := range parts {
		v, err := cluster.NewPlacementView(parent, part)
		if err != nil {
			return err
		}
		views[i] = v
	}
	m["cluster.view_build_s"] = time.Since(start).Seconds()
	start = time.Now()
	for _, v := range views {
		if err := v.Apply(parent, v.Sub()); err != nil {
			return err
		}
	}
	m["cluster.view_apply_s"] = time.Since(start).Seconds()

	prev := runtime.GOMAXPROCS(1)
	start = time.Now()
	_, err := w.solve(w.solverConfig(w.iterations))
	one := time.Since(start).Seconds()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	m["core.partitioned_gomaxprocs1_s"] = one
	m["core.parallel_speedup"] = one / m["core.solve_s"]
	return nil
}
