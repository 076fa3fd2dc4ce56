// Package core implements SRA — the Shard Reassignment Algorithm of
// "Improving Load Balance via Resource Exchange in Large-Scale Search
// Engines" (ICPP 2020) — a large neighborhood search (LNS) that rebalances
// query load across a shard-per-machine placement under static capacity
// constraints, a transient-resource move model, and the paper's resource
// exchange contract: K borrowed, initially vacant machines may be used
// freely, but K completely vacant machines must be handed back afterwards
// (not necessarily the borrowed ones).
//
// The solver keeps a complete placement at all times and enforces a
// vacancy budget: a shard may be placed on a vacant machine only while at
// least K other machines remain vacant. Destroy operators remove a batch of
// shards (randomly, from the hottest machines, by similarity, or by
// draining whole machines to free them for return); repair operators
// reinsert them (greedy best-fit or regret-2); simulated annealing governs
// acceptance. The final reassignment is compiled into a transiently
// feasible move schedule by internal/plan.
package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"rexchange/internal/cluster"
	"rexchange/internal/plan"
)

// OperatorSet toggles individual LNS operators, primarily for the F6
// ablation experiment. The zero value disables everything; use
// AllOperators for the full algorithm.
type OperatorSet struct {
	RandomRemove  bool // uniform random shard removal
	WorstRemove   bool // remove hot shards from the most utilized machines
	RelatedRemove bool // Shaw removal: similar load/static profiles
	DrainRemove   bool // empty a whole machine (enables returning it)

	GreedyRepair bool // best-fit insertion, hardest shard first
	RegretRepair bool // regret-2 insertion
}

// AllOperators enables the complete operator portfolio.
func AllOperators() OperatorSet {
	return OperatorSet{
		RandomRemove: true, WorstRemove: true, RelatedRemove: true, DrainRemove: true,
		GreedyRepair: true, RegretRepair: true,
	}
}

// anyDestroy reports whether at least one destroy operator is enabled.
func (o OperatorSet) anyDestroy() bool {
	return o.RandomRemove || o.WorstRemove || o.RelatedRemove || o.DrainRemove
}

// anyRepair reports whether at least one repair operator is enabled.
func (o OperatorSet) anyRepair() bool { return o.GreedyRepair || o.RegretRepair }

// Config parameterizes the solver.
type Config struct {
	// Iterations is the LNS iteration budget.
	Iterations int
	// Seed drives all solver randomness.
	Seed int64

	// HillClimb disables annealing entirely (accept only improvements).
	HillClimb bool

	// SpreadWeight weights the RMS-utilization term that breaks ties below
	// the maximum; MovePenalty charges (scaled) reassignment volume so the
	// solver prefers cheaper rebalances among equals.
	SpreadWeight, MovePenalty float64

	// ReturnCount is K, the number of vacant machines to hand back.
	// Negative means "infer": the number of Exchange-flagged machines in
	// the cluster.
	ReturnCount int

	// Operators selects the LNS operator portfolio.
	Operators OperatorSet
	// Adaptive enables ALNS-style roulette selection with learned operator
	// weights; otherwise operators are drawn uniformly.
	Adaptive bool

	// KeepTrajectory records the best objective after every iteration
	// (experiment F4).
	KeepTrajectory bool

	// Recorder, when non-nil, receives solver telemetry: per-operator
	// iteration outcome counts (batched locally and flushed once per run,
	// so the hot loop only pays an array increment) and per-run totals
	// with wall-clock duration. Telemetry never influences the search —
	// results remain bit-identical with or without a Recorder — and a nil
	// Recorder costs a single pointer check per iteration.
	Recorder Recorder
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		Iterations:   2500,
		Seed:         1,
		SpreadWeight: 0.10,
		MovePenalty:  0.02,
		ReturnCount:  -1,
		Operators:    AllOperators(),
		Adaptive:     true,
	}
}

// Search constants no caller varies.
const (
	// destroyFrac is the fraction of the shard population removed per
	// iteration, clamped to [minDestroy, maxDestroy].
	destroyFrac            = 0.06
	minDestroy, maxDestroy = 4, 80
	// tempFrac sets the initial simulated-annealing temperature as a
	// fraction of the starting objective; endTempFrac the final one.
	tempFrac, endTempFrac = 0.03, 0.0005
)

// Recorder observes solver progress. Implementations must be safe for
// concurrent use: SolvePartitioned's restarts and partition sub-solves
// flush their counts from worker goroutines. internal/obs.SolverRecorder is
// the standard implementation; the interface lives here (with string-typed
// labels) so the solver stays free of telemetry dependencies.
type Recorder interface {
	// RecordIterations reports that n LNS iterations paired destroyOp
	// with repairOp and ended with the given outcome — one of
	// "repair_failed", "rejected", "accepted", "improved", "new_best".
	// Called at most once per combination at the end of each run.
	RecordIterations(destroyOp, repairOp, outcome string, n int)
	// RecordRun reports one completed run's totals and wall-clock
	// duration in seconds.
	RecordRun(iterations, accepted, repairFailures int, seconds float64)
}

// Iteration outcome labels passed to Recorder.RecordIterations, in
// severity order: the repair failed outright; the candidate was evaluated
// but rejected; accepted without improving; improved the current
// solution; or set a new best-so-far.
const (
	IterRepairFailed = "repair_failed"
	IterRejected     = "rejected"
	IterAccepted     = "accepted"
	IterImproved     = "improved"
	IterNewBest      = "new_best"
)

// iterOutcomes indexes the outcome labels for the solver's local batch
// counters; the iterIdx* constants below are positions in this array.
var iterOutcomes = [...]string{IterRepairFailed, IterRejected, IterAccepted, IterImproved, IterNewBest}

// Outcome indices into iterOutcomes, used by the hot loop.
const (
	iterIdxRepairFailed = iota
	iterIdxRejected
	iterIdxAccepted
	iterIdxImproved
	iterIdxNewBest
)

// numIterOutcomes is the size of the outcome dimension.
const numIterOutcomes = len(iterOutcomes)

// Result is the outcome of one SRA run.
type Result struct {
	// Final is the chosen placement (the best found whose move schedule
	// is transiently feasible).
	Final *cluster.Placement
	// Plan is the transiently feasible move schedule realizing Final from
	// the initial placement.
	Plan *plan.Plan
	// Returned lists the K machines handed back as compensation; they are
	// vacant in Final.
	Returned []cluster.MachineID
	// Before/After summarize balance quality.
	Before, After cluster.Report
	// Objective is the solver objective of Final.
	Objective float64
	// MovedShards counts shards whose final machine differs from the
	// initial one.
	MovedShards int
	// Iterations, Accepted, RepairFailures, PlanFallbacks report search
	// behaviour.
	Iterations     int
	Accepted       int
	RepairFailures int
	PlanFallbacks  int
	// FailedRestarts counts portfolio restarts that returned an error
	// when SolvePartitioned solved the fleet as one partition (always 0
	// for Solve). A non-zero value means the returned best came from a
	// degraded portfolio.
	FailedRestarts int
	// FailedPartitions counts partition sub-solves that returned an error
	// in SolvePartitioned (always 0 for Solve). A failed partition keeps
	// its pre-round placement, so a non-zero value means parts of the
	// fleet went unoptimized this run.
	FailedPartitions int
	// Trajectory is the best objective after each iteration when
	// Config.KeepTrajectory is set.
	Trajectory []float64
}

// Solver runs SRA with a fixed configuration.
type Solver struct {
	cfg Config
}

// New creates a Solver. The configuration is validated lazily in Solve.
func New(cfg Config) *Solver { return &Solver{cfg: cfg} }

// validate checks the configuration against an instance and resolves K.
func (cfg *Config) validate(p *cluster.Placement) (int, error) {
	if p.UnassignedCount() > 0 {
		return 0, fmt.Errorf("core: initial placement has %d unassigned shards", p.UnassignedCount())
	}
	if !p.Feasible() {
		return 0, fmt.Errorf("core: initial placement violates static capacities")
	}
	if cfg.Iterations <= 0 {
		return 0, fmt.Errorf("core: Iterations must be positive")
	}
	if !cfg.Operators.anyDestroy() || !cfg.Operators.anyRepair() {
		return 0, fmt.Errorf("core: operator set needs at least one destroy and one repair operator")
	}
	k := cfg.ReturnCount
	if k < 0 {
		k = len(p.Cluster().ExchangeMachines())
	}
	if p.NumVacant() < k {
		return 0, fmt.Errorf("core: initial placement has %d vacant machines, need ≥ K=%d", p.NumVacant(), k)
	}
	return k, nil
}

// Solve rebalances the given placement. The input is not modified. The
// cluster referenced by p should already include any borrowed exchange
// machines (see cluster.WithExchange); K is inferred from it unless
// Config.ReturnCount overrides.
func (sv *Solver) Solve(p *cluster.Placement) (*Result, error) {
	cfg := sv.cfg
	k, err := cfg.validate(p)
	if err != nil {
		return nil, err
	}
	st := newState(cfg, p, k)
	st.run()
	return st.finish()
}

// Evaluate exposes the solver objective for a placement, for tests and the
// experiment harness. initial supplies the reference assignment for the
// move penalty; pass nil to skip it.
func Evaluate(cfg Config, p *cluster.Placement, initial []cluster.MachineID) float64 {
	return objective(p, cfg.SpreadWeight, cfg.MovePenalty, initial)
}

// pickReturned chooses the K machines to hand back: vacant machines,
// preferring the borrowed exchange machines themselves, then the vacant
// machines with the smallest serving speed (least valuable to keep).
func pickReturned(p *cluster.Placement, k int) []cluster.MachineID {
	c := p.Cluster()
	vacant := p.VacantMachines()
	// exchange first, then ascending speed, then ID
	slices.SortFunc(vacant, func(a, b cluster.MachineID) int {
		ma, mb := &c.Machines[a], &c.Machines[b]
		if ma.Exchange != mb.Exchange {
			if ma.Exchange {
				return -1
			}
			return 1
		}
		return cmp.Or(cmp.Compare(ma.Speed, mb.Speed), cmp.Compare(a, b))
	})
	if k > len(vacant) {
		k = len(vacant) // guarded by the solver invariant; defensive only
	}
	return vacant[:k]
}

// tempAt returns the SA temperature for iteration i of n, geometrically
// interpolated between t0 and tEnd.
func tempAt(t0, tEnd float64, i, n int) float64 {
	if t0 <= 0 {
		return 0
	}
	frac := float64(i) / math.Max(1, float64(n-1))
	return t0 * math.Pow(tEnd/t0, frac)
}

// rouletteIndex draws an index proportionally to weights.
func rouletteIndex(r *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}
