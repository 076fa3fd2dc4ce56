package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"rexchange/internal/cluster"
	"rexchange/internal/rng"
)

// This file implements the multi-solve entry point, SolvePartitioned. A
// fleet that solves as one partition gets a portfolio of decorrelated
// whole-cluster restarts (solveRestarts). Otherwise the fleet is
// factored into resource-equivalence partitions (cluster.PartitionByShape,
// after the authors' 2021 follow-up "Resource Equivalence Classes"), each
// partition is projected into an owned cluster.PlacementView and solved
// concurrently by an independent SRA instance on a proportional slice of
// the global iteration budget, and a deterministic cross-partition exchange
// phase trades shards and vacant machines from the hottest partition toward
// the coolest before the affected partitions are re-solved.
//
// Two properties make this more than a concurrency trick:
//
//   - Budget splitting: each partition receives Iterations·shards_i/shards
//     iterations, and one LNS iteration on a partition costs O(|partition|)
//     instead of O(|fleet|) (destroy/repair scan machines). The partitioned
//     solve therefore does ~P× less work per global budget — an algorithmic
//     speedup that holds even on a single core; worker concurrency stacks
//     on top on multi-core hosts.
//   - Determinism: partition seeds derive from (Seed, round, partition) via
//     splitmix64, results are slotted by partition index, views are applied
//     in index order, and the exchange phase is sequential with exact
//     tie-breaks — so the result is bit-identical across GOMAXPROCS.

// PartitionConfig parameterizes SolvePartitioned.
type PartitionConfig struct {
	// Partitions is the target partition count handed to
	// cluster.PartitionByShape. <= 1 (or a fleet that factors into a
	// single class) solves the whole cluster as one partition, with the
	// restart portfolio below.
	Partitions int
	// ExchangeRounds bounds the cross-partition exchange phases. Each
	// round re-solves only the partitions the exchange touched. 0 solves
	// every partition once and stops.
	ExchangeRounds int
	// Restarts is the portfolio width when the fleet solves as one
	// partition: that many whole-cluster searches run concurrently on
	// decorrelated seeds and the best objective wins. <= 0 selects the
	// pinned DefaultRestarts; 1 is exactly Solve, which
	// TestSolvePartitionedSinglePartitionBitIdentical pins.
	Restarts int

	// failPartition (tests only) injects a solve failure in the 1-based
	// partition with that index on the first round, to exercise the
	// degraded path; 0 disables. It stays because no real input makes
	// exactly one partition sub-solve fail.
	failPartition int
}

const (
	// minPartitionMachines is the smallest acceptable partition
	// (PartitionByShape merges smaller classes); it also floors donor
	// partitions in the exchange phase so no partition is traded down to
	// nothing.
	minPartitionMachines = 2
	// offloadPerRound caps the shards traded from the hottest partition's
	// peak machine to the coolest partition per exchange.
	offloadPerRound = 8
	// vacantPerRound caps the vacant machines re-homed into the hottest
	// partition per exchange.
	vacantPerRound = 1
	// minPartitionIterations floors each partition's iteration slice so
	// tiny partitions still search.
	minPartitionIterations = 50
)

// DefaultPartitionConfig returns the partitioned-solver settings the
// benchmark harness and the tests start from.
func DefaultPartitionConfig() PartitionConfig {
	return PartitionConfig{Partitions: 8, ExchangeRounds: 2}
}

// PartitionRecorder is an optional extension of Recorder: a Recorder that
// also implements it receives per-round partitioned-solve telemetry. The
// solver discovers it by type assertion so plain Recorders keep working
// unchanged. Implementations must be safe for concurrent use with the
// Recorder methods (partition sub-solves flush concurrently), though the
// PartitionRecorder methods themselves are only called from the
// coordinating goroutine.
type PartitionRecorder interface {
	Recorder
	// RecordPartitionRound reports one solve round: the partition count,
	// how many partitions were (re-)solved, and the global objective
	// after applying their results.
	RecordPartitionRound(partitions, solved int, objective float64)
	// RecordExchange reports one cross-partition exchange phase's trades.
	RecordExchange(shardMoves, vacantTrades int)
}

// exchangeGainEps is the relative peak-utilization gap below which the
// exchange phase considers partitions balanced and stops trading.
const exchangeGainEps = 0.01

// SolvePartitioned rebalances the placement by solving resource-equivalence
// partitions concurrently and reconciling them with a bounded number of
// cross-partition exchange rounds. The input placement is never modified —
// all work happens on a clone, so a failed run leaves p untouched. When
// pc.Partitions <= 1 or the fleet factors into a single partition, the call
// is the restart portfolio over the whole cluster (see solveRestarts).
//
// A partition whose sub-solve fails is left at its pre-round placement and
// counted in Result.FailedPartitions; an error is returned only when the
// first round produces no successful partition at all.
func (sv *Solver) SolvePartitioned(p *cluster.Placement, pc PartitionConfig) (*Result, error) {
	if pc.Partitions <= 1 {
		// Decided before validation, so a bad placement reports through
		// the portfolio ("all N restarts failed: …"), the text journals
		// and operators' greps already carry.
		return sv.solveRestarts(p, pc.Restarts)
	}
	cfg := sv.cfg
	k, err := cfg.validate(p)
	if err != nil {
		return nil, err
	}
	parts := cluster.PartitionByShape(p.Cluster(), cluster.PartitionOptions{
		Target:      pc.Partitions,
		MinMachines: minPartitionMachines,
	})
	if len(parts) <= 1 {
		return sv.solveRestarts(p, pc.Restarts)
	}
	if cluster.DebugAsserts {
		if err := cluster.CheckPartition(p.Cluster(), parts); err != nil {
			panic("core: SolvePartitioned: " + err.Error())
		}
	}

	work := p.Clone()
	initial := p.Assignment()
	totalShards := p.Cluster().NumShards()
	kByPart := splitReturnCount(work, parts, k)

	// improving mirrors state.improving: every placement that lowered the
	// global objective, in discovery order, so the final plan compilation
	// can fall back to an earlier solution. Index 0 is the initial
	// placement (the identity reassignment always plans).
	improving := []*cluster.Placement{p.Clone()}
	bestObj := objective(work, cfg.SpreadWeight, cfg.MovePenalty, initial)

	var iterations, accepted, repairFailures, failedParts int
	prec, hasPRec := cfg.Recorder.(PartitionRecorder)

	dirty := make([]int, len(parts))
	for i := range dirty {
		dirty[i] = i
	}
	for round := 0; ; round++ {
		views := make([]*cluster.PlacementView, len(parts))
		for _, pi := range dirty {
			v, err := cluster.NewPlacementView(work, parts[pi])
			if err != nil {
				return nil, fmt.Errorf("core: partition %d view: %w", pi, err)
			}
			if cluster.DebugAsserts {
				if err := v.CheckProjection(work); err != nil {
					panic("core: SolvePartitioned: " + err.Error())
				}
			}
			views[pi] = v
		}

		results := make([]outcome, len(parts))
		// Each view is owned by exactly one goroutine; partitions share no
		// machines or shards.
		fanOut(len(dirty), func(j int) {
			pi := dirty[j]
			v := views[pi]
			if v.NumShards() == 0 {
				return // nothing to rebalance; leave results[pi] zero
			}
			if round == 0 && pc.failPartition == pi+1 {
				results[pi] = outcome{nil, fmt.Errorf("core: injected failure in partition %d", pi)}
				return
			}
			pcfg := cfg
			pcfg.Seed = rng.CellSeed(cfg.Seed, round, pi)
			pcfg.Iterations = sliceIterations(cfg.Iterations, v.NumShards(), totalShards, minPartitionIterations)
			pcfg.ReturnCount = kByPart[pi]
			pcfg.KeepTrajectory = false
			res, err := New(pcfg).Solve(v.Sub())
			results[pi] = outcome{res, err}
		})

		// Apply in ascending partition index order — deterministic and,
		// because partitions are disjoint, order-independent in effect.
		solved := 0
		for _, pi := range dirty {
			o := results[pi]
			if o.err != nil {
				failedParts++
				continue // partition keeps its pre-round placement
			}
			if o.res == nil {
				continue // zero-shard partition, never solved
			}
			if err := views[pi].Apply(work, o.res.Final); err != nil {
				return nil, fmt.Errorf("core: partition %d apply: %w", pi, err)
			}
			iterations += o.res.Iterations
			accepted += o.res.Accepted
			repairFailures += o.res.RepairFailures
			solved++
		}
		if round == 0 && solved == 0 && failedParts > 0 {
			return nil, fmt.Errorf("core: all %d solved partitions failed", failedParts)
		}
		if cluster.DebugAsserts {
			work.MustInvariants("SolvePartitioned apply")
		}

		obj := objective(work, cfg.SpreadWeight, cfg.MovePenalty, initial)
		if hasPRec {
			prec.RecordPartitionRound(len(parts), solved, obj)
		}
		if obj < bestObj-1e-12 {
			bestObj = obj
			improving = append(improving, work.Clone())
		}
		if round >= pc.ExchangeRounds {
			break
		}

		ex := exchangePhase(work, parts, kByPart)
		if hasPRec {
			prec.RecordExchange(ex.shardMoves, ex.vacantTrades)
		}
		if len(ex.dirty) == 0 {
			break
		}
		if cluster.DebugAsserts {
			if err := cluster.CheckPartition(work.Cluster(), parts); err != nil {
				panic("core: SolvePartitioned exchange: " + err.Error())
			}
			work.MustInvariants("SolvePartitioned exchange")
		}
		dirty = ex.dirty
	}

	res, err := compileBest(cfg, p, initial, improving, k)
	if err != nil {
		return nil, err
	}
	res.Iterations = iterations
	res.Accepted = accepted
	res.RepairFailures = repairFailures
	res.FailedPartitions = failedParts
	return res, nil
}

// DefaultRestarts is the portfolio width PartitionConfig.Restarts <= 0
// selects. It is a pinned constant — never derived from GOMAXPROCS or any
// other machine property — so that a defaulted portfolio runs the same set
// of searches on every host.
const DefaultRestarts = 4

// solveRestarts runs `restarts` independent LNS searches over the whole
// cluster concurrently — same configuration, decorrelated seeds — and
// returns the best result by solver objective. The placement state is
// cloned per worker, so speedup is near-linear until memory bandwidth
// binds; the input placement is shared read-only and never modified.
//
// Determinism: for a fixed (Config.Seed, restarts) the set of searches and
// the returned result are reproducible regardless of scheduling — and of
// GOMAXPROCS, including on the defaulted path — because selection uses the
// objective with the restart index as tie-breaker. rng.WorkerSeed keeps
// restart 0 on the base seed, so the portfolio always contains the plain
// single run.
//
// Individual restart failures do not abort the portfolio: the best
// successful result is returned with Result.FailedRestarts counting the
// losses, and an error is returned only when every restart failed.
func (sv *Solver) solveRestarts(p *cluster.Placement, restarts int) (*Result, error) {
	if restarts <= 0 {
		restarts = DefaultRestarts
	}
	if restarts == 1 {
		return sv.Solve(p)
	}

	outcomes := make([]outcome, restarts)
	// Workers read p only; Solve clones before mutating (newState).
	fanOut(restarts, func(i int) {
		cfg := sv.cfg
		cfg.Seed = rng.WorkerSeed(sv.cfg.Seed, i)
		res, err := New(cfg).Solve(p)
		outcomes[i] = outcome{res, err}
	})
	return reduceOutcomes(outcomes)
}

// fanOut runs work(0) … work(n-1) on one goroutine each and returns when
// all have finished, with at most GOMAXPROCS of them running at a time:
// every worker clones or owns a placement, and more parallelism than cores
// only adds memory pressure. GOMAXPROCS is a throughput cap only — it must
// never influence which searches run or which results win. sharecheck does
// not follow a placement that work captures onto these goroutines, so the
// single-owner rule is the caller's to keep: a captured placement is read
// only, or owned by exactly one index.
func fanOut(n int, work func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			work(i)
		}(i)
	}
	wg.Wait()
}

// outcome is one restart's (or one partition sub-solve's) result.
type outcome struct {
	res *Result
	err error
}

// reduceOutcomes selects the best successful restart by objective (ties
// resolved by restart index, never completion order, preserving the
// determinism contract). Partially failed portfolios are not silent: the
// number of failed restarts is recorded in the winner's FailedRestarts so
// callers can detect a degraded portfolio. Only when every restart fails
// does the reduction return an error (wrapping the first, by index).
func reduceOutcomes(outcomes []outcome) (*Result, error) {
	var best *Result
	var firstErr error
	failed := 0
	for i := range outcomes {
		o := outcomes[i]
		if o.err != nil {
			failed++
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		if best == nil || o.res.Objective < best.Objective {
			best = o.res
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: all %d restarts failed: %w", len(outcomes), firstErr)
	}
	best.FailedRestarts = failed
	return best, nil
}

// Sub-solver seeds for (round, partition) cells come from rng.CellSeed:
// chained splitmix64 steps — the same construction as rng.WorkerSeed,
// extended to two indices so no two cells collide structurally.
// TestCellSeedMatchesLegacyPartitionSeed in internal/rng pins the exact
// bit pattern so the extraction cannot shift solver trajectories.

// sliceIterations splits the global iteration budget proportionally to the
// partition's shard share, floored so small partitions still search.
func sliceIterations(total, partShards, totalShards, floor int) int {
	it := floor
	if totalShards > 0 {
		if prop := int(int64(total) * int64(partShards) / int64(totalShards)); prop > it {
			it = prop
		}
	}
	return it
}

// splitReturnCount distributes the global return obligation K over the
// partitions proportionally to their current vacancy (largest-remainder
// rounding, ties to the lower index), with every share capped by the
// partition's own vacancy. Because each partition solve preserves its local
// k_i vacancy floor and the exchange phase never spends a donor below it,
// the per-partition contracts sum back to the global one: the fleet always
// retains at least K vacant machines to hand back.
func splitReturnCount(p *cluster.Placement, parts [][]cluster.MachineID, k int) []int {
	ks := make([]int, len(parts))
	if k == 0 {
		return ks
	}
	partOf := partIndex(p.Cluster(), parts)
	vac := make([]int, len(parts))
	total := 0
	p.EachVacant(func(m cluster.MachineID) {
		vac[partOf[m]]++
		total++
	})
	// validate guaranteed total >= k.
	assigned := 0
	rem := make([]int64, len(parts))
	for i := range parts {
		share := int64(k) * int64(vac[i])
		ks[i] = int(share / int64(total))
		rem[i] = share % int64(total)
		assigned += ks[i]
	}
	for assigned < k {
		best := -1
		for i := range parts {
			if rem[i] < 0 {
				continue
			}
			if best < 0 || rem[i] > rem[best] {
				best = i
			}
		}
		ks[best]++ // rem[best] > 0 here, so ks[best] < vac[best] held before the increment
		rem[best] = -1
		assigned++
	}
	return ks
}

// partIndex maps every machine to its partition's index.
func partIndex(c *cluster.Cluster, parts [][]cluster.MachineID) []int {
	partOf := make([]int, c.NumMachines())
	for pi, part := range parts {
		for _, m := range part {
			partOf[m] = pi
		}
	}
	return partOf
}

// exchangeOutcome summarizes one exchange phase.
type exchangeOutcome struct {
	dirty        []int // partitions to re-solve, ascending
	shardMoves   int
	vacantTrades int
}

// exchangePhase performs the paper's resource exchange across partitions:
// the partition with the highest peak utilization receives spare vacant
// machines re-homed from the partition with the most vacancy headroom, and
// sheds shards from its peak machine onto the coolest partition's machines
// wherever that strictly undercuts the hot peak. Mutates work (shard moves)
// and parts (machine membership) in place; every trade respects the
// per-partition vacancy floors in kByPart, so the global return contract
// survives. Entirely sequential and tie-broken on IDs — deterministic.
func exchangePhase(work *cluster.Placement, parts [][]cluster.MachineID, kByPart []int) exchangeOutcome {
	c := work.Cluster()
	partOf := partIndex(c, parts)

	peak := make([]float64, len(parts))
	peakM := make([]cluster.MachineID, len(parts))
	for pi := range peakM {
		peakM[pi] = cluster.Unassigned
	}
	for pi, part := range parts {
		for _, m := range part {
			if work.IsVacant(m) {
				continue
			}
			if u := work.Load(m) / c.Machines[m].Speed; u > peak[pi] {
				peak[pi] = u
				peakM[pi] = m
			}
		}
	}
	vac := make([]int, len(parts))
	work.EachVacant(func(m cluster.MachineID) { vac[partOf[m]]++ })

	hot, cool := -1, -1
	for pi := range parts {
		if peakM[pi] == cluster.Unassigned {
			continue // an all-vacant partition has nothing to shed
		}
		if hot < 0 || peak[pi] > peak[hot] {
			hot = pi
		}
	}
	if hot < 0 {
		return exchangeOutcome{}
	}
	for pi := range parts {
		if pi == hot {
			continue
		}
		if cool < 0 || peak[pi] < peak[cool] {
			cool = pi
		}
	}
	if cool < 0 || peak[hot]-peak[cool] <= exchangeGainEps*peak[hot] {
		return exchangeOutcome{} // partitions already balanced
	}

	dirtyFlag := make([]bool, len(parts))
	out := exchangeOutcome{}

	// Vacant-machine trade: re-home spare vacant machines into the hot
	// partition so its next solve can spread onto them. Donors must keep
	// their k_i floor, their partition floor, and are picked by headroom
	// (ties to the lower index); the machine picked is the donor's fastest
	// vacant one (ties to the lower ID) — the most serving value moved per
	// trade.
	for t := 0; t < vacantPerRound; t++ {
		donor := -1
		for pi := range parts {
			if pi == hot || len(parts[pi]) <= minPartitionMachines {
				continue
			}
			if vac[pi]-kByPart[pi] <= 0 {
				continue
			}
			if donor < 0 || vac[pi]-kByPart[pi] > vac[donor]-kByPart[donor] {
				donor = pi
			}
		}
		if donor < 0 {
			break
		}
		pick := cluster.Unassigned
		for _, m := range parts[donor] {
			if !work.IsVacant(m) {
				continue
			}
			if pick == cluster.Unassigned || c.Machines[m].Speed > c.Machines[pick].Speed {
				pick = m
			}
		}
		if pick == cluster.Unassigned {
			break
		}
		parts[donor] = removeMachine(parts[donor], pick)
		parts[hot] = insertMachine(parts[hot], pick)
		partOf[pick] = hot
		vac[donor]--
		vac[hot]++
		dirtyFlag[donor] = true
		dirtyFlag[hot] = true
		out.vacantTrades++
	}

	// Shard offload: move the heaviest shards off the hot partition's peak
	// machine onto the coolest partition wherever the landing utilization
	// strictly undercuts the hot peak, respecting the cool partition's
	// vacancy floor.
	if hm := peakM[hot]; hm != cluster.Unassigned {
		shards := append([]cluster.ShardID(nil), work.ShardsOn(hm)...)
		sort.Slice(shards, func(i, j int) bool {
			a, b := &c.Shards[shards[i]], &c.Shards[shards[j]]
			if a.Load != b.Load {
				return a.Load > b.Load
			}
			return shards[i] < shards[j]
		})
		for _, s := range shards {
			if out.shardMoves >= offloadPerRound {
				break
			}
			target := cluster.Unassigned
			bestU := peak[hot]
			for _, m := range parts[cool] {
				if !work.CanPlace(s, m) {
					continue
				}
				if work.IsVacant(m) && vac[cool] <= kByPart[cool] {
					continue // spending this machine would break the return contract
				}
				if u := (work.Load(m) + c.Shards[s].Load) / c.Machines[m].Speed; u < bestU-1e-12 {
					target = m
					bestU = u
				}
			}
			if target == cluster.Unassigned {
				continue
			}
			if work.IsVacant(target) {
				vac[cool]--
			}
			work.Move(s, target)
			dirtyFlag[hot] = true
			dirtyFlag[cool] = true
			out.shardMoves++
		}
	}

	for pi, d := range dirtyFlag {
		if d {
			out.dirty = append(out.dirty, pi)
		}
	}
	return out
}

// removeMachine deletes m from an ascending machine list, preserving order.
func removeMachine(part []cluster.MachineID, m cluster.MachineID) []cluster.MachineID {
	i := sort.Search(len(part), func(i int) bool { return part[i] >= m })
	return append(part[:i], part[i+1:]...)
}

// insertMachine inserts m into an ascending machine list, preserving order.
func insertMachine(part []cluster.MachineID, m cluster.MachineID) []cluster.MachineID {
	i := sort.Search(len(part), func(i int) bool { return part[i] >= m })
	part = append(part, 0)
	copy(part[i+1:], part[i:])
	part[i] = m
	return part
}
