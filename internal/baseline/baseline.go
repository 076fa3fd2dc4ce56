// Package baseline implements the comparison load balancers used in the
// experiments: a classic greedy rebalancer and a swap-capable local search,
// both operating without the paper's resource-exchange mechanism. Both
// execute moves directly against a working placement, so every schedule
// they produce is transiently feasible by construction — which is precisely
// their limitation in stringent environments: any relocation that would
// need staging space is simply unavailable to them.
package baseline

import (
	"sort"

	"rexchange/internal/cluster"
	"rexchange/internal/plan"
)

// Result is the outcome of a baseline rebalancing run.
type Result struct {
	// Final is the resulting placement.
	Final *cluster.Placement
	// Plan is the executed move sequence (transiently feasible by
	// construction).
	Plan *plan.Plan
	// Before/After summarize balance quality.
	Before, After cluster.Report
	// MovedShards counts shards that changed machines.
	MovedShards int
}

// Config bounds a baseline run.
type Config struct {
	// Keep is the vacancy budget: the run must leave at least Keep
	// machines vacant (0 for the standard no-exchange setting).
	Keep int
	// AllowSwaps enables pairwise shard exchanges in LocalSearch.
	AllowSwaps bool
}

// eps guards strict-improvement comparisons against float drift.
const eps = 1e-12

// maxMovesPerShard caps executed migration steps at this multiple of the
// shard count.
const maxMovesPerShard = 4

// Greedy repeatedly moves the most beneficial shard off the currently
// hottest machine onto the machine that minimizes the resulting pair
// utilization, until no strictly improving move exists or the move budget
// is exhausted. This is the textbook shard rebalancer used as the weakest
// baseline.
func Greedy(p *cluster.Placement, cfg Config) *Result {
	w := p.Clone()
	before := p.Report()
	maxMoves := maxMovesPerShard * w.Cluster().NumShards()
	sched := &plan.Plan{}
	for len(sched.Moves) < maxMoves {
		if !greedyStep(w, cfg.Keep, sched) {
			break
		}
	}
	return &Result{
		Final:       w,
		Plan:        sched,
		Before:      before,
		After:       w.Report(),
		MovedShards: countMoved(p, w),
	}
}

// greedyStep performs one improving move off the hottest machine,
// reporting whether it moved anything.
func greedyStep(w *cluster.Placement, keep int, sched *plan.Plan) bool {
	c := w.Cluster()
	hot := hottest(w)
	if hot == cluster.Unassigned {
		return false
	}
	hotUtil := w.Utilization(hot)

	// shards on the hot machine, heaviest first
	shards := w.ShardsOn(hot)
	sort.Slice(shards, func(i, j int) bool {
		if c.Shards[shards[i]].Load != c.Shards[shards[j]].Load {
			return c.Shards[shards[i]].Load > c.Shards[shards[j]].Load
		}
		return shards[i] < shards[j]
	})

	bestS := cluster.ShardID(-1)
	bestM := cluster.Unassigned
	bestPeak := hotUtil
	for _, s := range shards {
		ls := c.Shards[s].Load
		for m := 0; m < c.NumMachines(); m++ {
			id := cluster.MachineID(m)
			if id == hot || !canHost(w, s, id, keep) {
				continue
			}
			newTarget := (w.Load(id) + ls) / c.Machines[m].Speed
			newHot := (w.Load(hot) - ls) / c.Machines[hot].Speed
			peak := newTarget
			if newHot > peak {
				peak = newHot
			}
			if peak < bestPeak-eps {
				bestS, bestM, bestPeak = s, id, peak
			}
		}
	}
	if bestM == cluster.Unassigned {
		return false
	}
	sched.Moves = append(sched.Moves, plan.Move{S: bestS, From: hot, To: bestM})
	w.Move(bestS, bestM)
	return true
}

// LocalSearch is the stronger state-of-the-art stand-in: hill climbing
// with single-shard moves plus (optionally) pairwise swaps between the
// hottest machine and any other, executed only when a transiently feasible
// serial order exists. It strictly decreases the hottest pairwise peak at
// every step and stops at a local optimum.
func LocalSearch(p *cluster.Placement, cfg Config) *Result {
	w := p.Clone()
	before := p.Report()
	maxMoves := maxMovesPerShard * w.Cluster().NumShards()
	sched := &plan.Plan{}
	for len(sched.Moves) < maxMoves {
		if greedyStep(w, cfg.Keep, sched) {
			continue
		}
		if cfg.AllowSwaps && swapStep(w, cfg.Keep, sched) {
			continue
		}
		break
	}
	return &Result{
		Final:       w,
		Plan:        sched,
		Before:      before,
		After:       w.Report(),
		MovedShards: countMoved(p, w),
	}
}

// swapStep exchanges one shard on the hottest machine with a lighter shard
// elsewhere when that strictly lowers the pair's peak utilization and a
// serial execution order fits. Reports whether a swap was executed.
func swapStep(w *cluster.Placement, keep int, sched *plan.Plan) bool {
	c := w.Cluster()
	hot := hottest(w)
	if hot == cluster.Unassigned {
		return false
	}
	hotUtil := w.Utilization(hot)
	hotShards := w.ShardsOn(hot)

	type swap struct {
		s, t cluster.ShardID
		b    cluster.MachineID
		peak float64
	}
	best := swap{peak: hotUtil}
	found := false
	for m := 0; m < c.NumMachines(); m++ {
		b := cluster.MachineID(m)
		if b == hot || w.IsVacant(b) {
			continue
		}
		ub := w.Utilization(b)
		for _, s := range hotShards {
			ls := c.Shards[s].Load
			for _, t := range w.ShardsOn(b) {
				lt := c.Shards[t].Load
				if lt >= ls {
					continue // swapping equal/heavier in makes hot hotter
				}
				newHot := hotUtil + (lt-ls)/c.Machines[hot].Speed
				newB := ub + (ls-lt)/c.Machines[b].Speed
				peak := newHot
				if newB > peak {
					peak = newB
				}
				if peak < best.peak-eps {
					best = swap{s, t, b, peak}
					found = true
				}
			}
		}
	}
	if !found {
		return false
	}
	return executeSwap(w, best.s, best.t, hot, best.b, keep, sched)
}

// executeSwap tries both serial orders of the two moves, applying the first
// transiently feasible one; it reports whether the swap happened.
func executeSwap(w *cluster.Placement, s, t cluster.ShardID, a, b cluster.MachineID, keep int, sched *plan.Plan) bool {
	// order 1: s a→b, then t b→a
	if canHost(w, s, b, keep) {
		w.Move(s, b)
		if canHost(w, t, a, keep) {
			w.Move(t, a)
			sched.Moves = append(sched.Moves,
				plan.Move{S: s, From: a, To: b}, plan.Move{S: t, From: b, To: a})
			return true
		}
		w.Move(s, a) // roll back
	}
	// order 2: t b→a, then s a→b
	if canHost(w, t, a, keep) {
		w.Move(t, a)
		if canHost(w, s, b, keep) {
			w.Move(s, b)
			sched.Moves = append(sched.Moves,
				plan.Move{S: t, From: b, To: a}, plan.Move{S: s, From: a, To: b})
			return true
		}
		w.Move(t, b) // roll back
	}
	return false
}

// canHost combines the static fit test with the vacancy budget.
func canHost(w *cluster.Placement, s cluster.ShardID, m cluster.MachineID, keep int) bool {
	if w.IsVacant(m) && w.NumVacant() <= keep {
		return false
	}
	return w.CanPlace(s, m)
}

// hottest returns the serving machine with the highest utilization.
func hottest(w *cluster.Placement) cluster.MachineID {
	c := w.Cluster()
	best := cluster.Unassigned
	bestU := -1.0
	for m := 0; m < c.NumMachines(); m++ {
		id := cluster.MachineID(m)
		if w.IsVacant(id) {
			continue
		}
		if u := w.Utilization(id); u > bestU {
			best, bestU = id, u
		}
	}
	return best
}

func countMoved(from, to *cluster.Placement) int {
	n := 0
	for s := 0; s < from.Cluster().NumShards(); s++ {
		if from.Home(cluster.ShardID(s)) != to.Home(cluster.ShardID(s)) {
			n++
		}
	}
	return n
}
