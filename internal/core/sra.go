package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"rexchange/internal/cluster"
	"rexchange/internal/plan"
	"rexchange/internal/vec"
)

// state carries one Solve invocation.
type state struct {
	cfg Config
	k   int
	rng *rand.Rand

	initialP *cluster.Placement  // untouched starting placement
	initial  []cluster.MachineID // starting assignment (move-penalty reference)

	cur    *cluster.Placement
	speeds []float64 // machine speeds, read once: the insertion scans' divisors
	curObj float64
	kern   kernel // how run() tries a neighborhood on cur and takes it back

	bestObj float64
	// improving records every new-best placement in discovery order, so
	// finish() can fall back to an earlier (more conservative) solution if
	// the very best one has no transiently feasible schedule. Each is a
	// clone frozen once recorded; only cur is ever mutated.
	improving []*cluster.Placement

	destroyOps []destroyOp
	repairOps  []repairOp
	dWeights   []float64
	rWeights   []float64

	pool []cluster.ShardID // shards removed by the current destroy

	// Incremental objective state (incremental.go) and its per-iteration
	// snapshot of the lazy maximum.
	obj           objState
	savedMaxU     float64
	savedMaxM     int
	savedMaxDirty bool

	// Reusable scratch so the hot loop is allocation-free: a persistent
	// shard permutation for destroyRandom, the bounded-selection buffer of
	// whichever operator is running (worst, related, drain or regret),
	// drain's shard list, and the candidate-machine and remaining-pool
	// buffers for regret repair.
	shardPerm      []cluster.ShardID
	rankScratch    []ranked
	drainIDScratch []cluster.ShardID
	candScratch    []cluster.MachineID
	remainScratch  []cluster.ShardID

	// Regret repair's reads of its candidate machines, aligned with
	// candScratch and refilled once per step (readCandidates).
	candLoad, candSpeed []float64
	candUsed            []vec.Vec
	candHeld            []bool

	// Shaw removal's normalizers: the largest shard load and static norm.
	loadScale, staticScale float64

	trajectory     []float64
	accepted       int
	repairFailures int

	// iterCounts batches Recorder outcome counts locally, indexed
	// (di*len(repairOps)+ri)*numIterOutcomes+outcome, so the hot loop
	// pays one slice increment and the flush happens once per run. nil
	// when no Recorder is configured.
	iterCounts []int
}

type destroyOp struct {
	name string
	fn   func(*state, int)
}

type repairOp struct {
	name string
	fn   func(*state) bool
}

func newState(cfg Config, p *cluster.Placement, k int) *state {
	st := &state{
		cfg:      cfg,
		k:        k,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		initialP: p,
		initial:  p.Assignment(),
		cur:      p.Clone(),
	}
	st.speeds = make([]float64, p.Cluster().NumMachines())
	for m := range st.speeds {
		st.speeds[m] = p.Cluster().Machines[m].Speed
	}
	st.kern = deltaKernel{st}
	if cfg.Operators.RandomRemove {
		st.destroyOps = append(st.destroyOps, destroyOp{"random", (*state).destroyRandom})
	}
	if cfg.Operators.WorstRemove {
		st.destroyOps = append(st.destroyOps, destroyOp{"worst", (*state).destroyWorst})
	}
	if cfg.Operators.RelatedRemove {
		st.destroyOps = append(st.destroyOps, destroyOp{"related", (*state).destroyRelated})
		st.loadScale, st.staticScale = maxShardLoad(p.Cluster()), maxShardStatic(p.Cluster())
	}
	if cfg.Operators.DrainRemove {
		st.destroyOps = append(st.destroyOps, destroyOp{"drain", (*state).destroyDrain})
	}
	if cfg.Operators.GreedyRepair {
		st.repairOps = append(st.repairOps, repairOp{"greedy", (*state).repairGreedy})
	}
	if cfg.Operators.RegretRepair {
		st.repairOps = append(st.repairOps, repairOp{"regret", (*state).repairRegret})
	}
	st.dWeights = uniformWeights(len(st.destroyOps))
	st.rWeights = uniformWeights(len(st.repairOps))
	if cfg.Recorder != nil {
		st.iterCounts = make([]int, len(st.destroyOps)*len(st.repairOps)*numIterOutcomes)
	}
	return st
}

func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// kernel is the part of an LNS iteration that tries a neighborhood on
// st.cur and keeps it or takes it back; run() owns everything else (operator
// choice, acceptance, best tracking). Per iteration run() calls begin, lets
// destroy and repair mutate st.cur, and then either rejects at once (the
// repair failed) or evaluates and keeps or rejects. Solve always runs
// deltaKernel; the seam exists so that kernel_test.go can drive the same
// loop with the clone-and-rescan reference it compares against.
type kernel interface {
	begin()
	evaluate() float64 // the objective of st.cur after a successful repair
	keep()
	reject() // restore st.cur to its state at begin, evaluated or not
}

// deltaKernel journals the neighborhood on the placement, evaluates the
// objective incrementally (incremental.go), and commits or rolls back in
// O(mutations touched).
type deltaKernel struct{ st *state }

func (k deltaKernel) begin()            { k.st.cur.BeginTxn(); k.st.saveObjState() }
func (k deltaKernel) evaluate() float64 { k.st.syncTouched(); return k.st.evalIncremental() }
func (k deltaKernel) keep()             { k.st.cur.Commit() }
func (k deltaKernel) reject()           { k.st.rollbackIncremental() }

// run executes the LNS loop over st.kern. The delta kernel and the
// reference kernel (clone the placement up front, rescan the full
// objective) perform bit-identical arithmetic and the loop consumes the RNG
// the same way over either, so for a fixed seed they must produce the same
// Result; TestKernelEquivalence enforces this, and under -tags debugasserts
// every evaluation is cross-checked against the reference objective.
func (st *state) run() {
	cfg := st.cfg
	var runStart time.Time
	if cfg.Recorder != nil {
		runStart = time.Now() //rexlint:ignore clockpurity recorder wall time feeds telemetry only
	}
	st.curObj = objective(st.cur, cfg.SpreadWeight, cfg.MovePenalty, st.initial)
	st.bestObj = st.curObj
	st.improving = append(st.improving, st.cur.Clone())
	st.initIncremental()

	t0 := tempFrac * st.curObj
	tEnd := endTempFrac * st.curObj

	n := st.cur.Cluster().NumShards()
	baseQ := int(destroyFrac * float64(n))
	if baseQ < minDestroy {
		baseQ = minDestroy
	}
	if baseQ > maxDestroy {
		baseQ = maxDestroy
	}

	if cfg.KeepTrajectory {
		st.trajectory = make([]float64, 0, cfg.Iterations)
	}

	for it := 0; it < cfg.Iterations; it++ {
		st.kern.begin()

		// destroy size: jitter around baseQ in [minDestroy, maxDestroy]
		q := minDestroy
		if baseQ > minDestroy {
			q += st.rng.Intn(baseQ - minDestroy + 1)
		}
		if q > n {
			q = n
		}

		di := st.pickOp(st.dWeights)
		ri := st.pickOp(st.rWeights)

		st.pool = st.pool[:0]
		st.destroyOps[di].fn(st, q)
		if cluster.DebugAsserts {
			st.cur.MustInvariants("destroy " + st.destroyOps[di].name)
		}
		ok := st.repairOps[ri].fn(st)
		if cluster.DebugAsserts {
			// Even a failed repair must leave the bookkeeping uncorrupted;
			// the caller only discards the neighborhood, not the structure.
			st.cur.MustInvariants("repair " + st.repairOps[ri].name)
		}

		reward := 0.0
		outcome := iterIdxRepairFailed
		if !ok {
			st.kern.reject()
			st.repairFailures++
		} else {
			newObj := st.kern.evaluate()
			if cluster.DebugAsserts {
				ref := objective(st.cur, cfg.SpreadWeight, cfg.MovePenalty, st.initial)
				if math.Float64bits(newObj) != math.Float64bits(ref) {
					panic(fmt.Sprintf(
						"core: incremental objective %v diverged from reference %v at iteration %d",
						newObj, ref, it))
				}
			}
			accept := newObj <= st.curObj+1e-12
			if !accept && !cfg.HillClimb {
				t := tempAt(t0, tEnd, it, cfg.Iterations)
				if t > 0 {
					accept = st.rng.Float64() < math.Exp(-(newObj-st.curObj)/t)
				}
			}
			if accept {
				st.kern.keep()
				st.accepted++
				improvedCur := newObj < st.curObj
				st.curObj = newObj
				switch {
				case newObj < st.bestObj-1e-12:
					st.bestObj = newObj
					st.improving = append(st.improving, st.cur.Clone())
					reward = 3
					outcome = iterIdxNewBest
				case improvedCur:
					reward = 1
					outcome = iterIdxImproved
				default:
					reward = 0.4
					outcome = iterIdxAccepted
				}
			} else {
				outcome = iterIdxRejected
				st.kern.reject()
			}
		}
		if st.iterCounts != nil {
			st.iterCounts[(di*len(st.repairOps)+ri)*numIterOutcomes+outcome]++
		}
		if cfg.Adaptive {
			st.updateWeight(st.dWeights, di, reward)
			st.updateWeight(st.rWeights, ri, reward)
		}
		if cfg.KeepTrajectory {
			st.trajectory = append(st.trajectory, st.bestObj)
		}
	}
	if cfg.Recorder != nil {
		st.flushRecorder(time.Since(runStart).Seconds()) //rexlint:ignore clockpurity recorder wall time feeds telemetry only
	}
}

// flushRecorder drains the batched per-operator outcome counts into the
// configured Recorder, then reports the run totals. Wall-clock seconds
// feed telemetry only; they never influence the search.
func (st *state) flushRecorder(seconds float64) {
	rec := st.cfg.Recorder
	for di := range st.destroyOps {
		for ri := range st.repairOps {
			base := (di*len(st.repairOps) + ri) * numIterOutcomes
			for o := 0; o < numIterOutcomes; o++ {
				if n := st.iterCounts[base+o]; n > 0 {
					rec.RecordIterations(st.destroyOps[di].name, st.repairOps[ri].name, iterOutcomes[o], n)
				}
			}
		}
	}
	rec.RecordRun(st.cfg.Iterations, st.accepted, st.repairFailures, seconds)
}

// pickOp selects an operator index: adaptive roulette or uniform.
func (st *state) pickOp(weights []float64) int {
	if len(weights) == 1 {
		return 0
	}
	if st.cfg.Adaptive {
		return rouletteIndex(st.rng, weights)
	}
	return st.rng.Intn(len(weights))
}

// updateWeight applies the exponential ALNS weight update with a floor so
// no operator starves permanently.
func (st *state) updateWeight(weights []float64, i int, reward float64) {
	weights[i] = 0.85*weights[i] + 0.15*reward
	if weights[i] < 0.05 {
		weights[i] = 0.05
	}
}

// finish compiles the search's best reassignment into the solve result.
func (st *state) finish() (*Result, error) {
	res, err := compileBest(st.cfg, st.initialP, st.initial, st.improving, st.k)
	if err != nil {
		return nil, err
	}
	res.Iterations = st.cfg.Iterations
	res.Accepted = st.accepted
	res.RepairFailures = st.repairFailures
	res.Trajectory = st.trajectory
	return res, nil
}

// compileBest compiles the best improving placement into a move schedule
// from the starting placement, falling back to earlier improving solutions
// when the best has no feasible schedule (rare, but possible when every
// intermediate machine is saturated), and assembles everything in the
// Result that derives from the chosen placement. improving is in discovery
// order with the starting placement at index 0; initial is its assignment.
// Search counters are the caller's to fill in.
func compileBest(cfg Config, from *cluster.Placement, initial []cluster.MachineID, improving []*cluster.Placement, k int) (*Result, error) {
	fallbacks := 0
	for i := len(improving) - 1; i >= 0; i-- {
		final := improving[i]
		schedule, err := plan.DefaultPlanner().Build(from, final)
		if err != nil {
			fallbacks++
			continue
		}
		return &Result{
			Final:         final,
			Plan:          schedule,
			Returned:      pickReturned(final, k),
			Before:        from.Report(),
			After:         final.Report(),
			Objective:     objective(final, cfg.SpreadWeight, cfg.MovePenalty, initial),
			MovedShards:   movedCount(final, initial),
			PlanFallbacks: fallbacks,
		}, nil
	}
	// The identity reassignment always plans (zero moves) and improving[0]
	// is the starting placement, so this is unreachable unless the planner
	// itself errors on identical placements — treat as a bug.
	return nil, errIdentityPlan
}

// errIdentityPlan is a defensive sentinel; see compileBest.
var errIdentityPlan = errors.New("core: internal error: identity reassignment failed to plan")
