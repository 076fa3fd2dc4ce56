package core

import (
	"cmp"
	"math"
	"slices"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
)

// vacancyBlocked reports whether the resource-exchange contract holds back
// every currently vacant machine: occupying one is allowed only while more
// than K machines are vacant, so that K can still be returned. NumVacant
// changes only at Place and Remove, so a scan takes the verdict once. A
// shard may go on machine m when the verdict does not hold m back and
// CanPlace(s, m): static capacity and anti-affinity hold.
func (st *state) vacancyBlocked() bool { return st.cur.NumVacant() <= st.k }

// insertionCost is the cost every insertion scan minimizes: the utilization
// a machine of the given load and speed reaches after taking a shard of load
// ls — the greedy criterion that directly minimizes the makespan objective.
func insertionCost(load, ls, speed float64) float64 { return (load + ls) / speed }

// bestMachineFor scans all machines for the cheapest feasible insertion of
// s, breaking cost ties toward the machine with more static slack (to keep
// future insertions feasible). Returns Unassigned when nothing fits. The
// cost comes first: a machine too expensive to change the answer is never
// asked whether s fits on it.
func (st *state) bestMachineFor(s cluster.ShardID) cluster.MachineID {
	ls := st.cur.Cluster().Shards[s].Load
	blocked := st.vacancyBlocked()
	best := cluster.Unassigned
	bestCost := math.Inf(1)
	bestSlack := -1.0
	for m, speed := range st.speeds {
		id := cluster.MachineID(m)
		cost := insertionCost(st.cur.Load(id), ls, speed)
		if cost > bestCost+1e-12 || (blocked && st.cur.IsVacant(id)) || !st.cur.CanPlace(s, id) {
			continue
		}
		if cost < bestCost-1e-12 {
			best, bestCost = id, cost
			bestSlack = st.cur.Free(id).MaxDim()
		} else if cost <= bestCost+1e-12 {
			if slack := st.cur.Free(id).MaxDim(); slack > bestSlack {
				best, bestSlack = id, slack
			}
		}
	}
	return best
}

// repairGreedy inserts the pool hardest-first (largest load, then largest
// static footprint) at each shard's cheapest feasible machine. Returns
// false when some shard fits nowhere (caller restores the snapshot).
func (st *state) repairGreedy() bool {
	c := st.cur.Cluster()
	// hardest first: descending load, then descending maximum static
	// dimension, then ascending shard ID
	slices.SortFunc(st.pool, func(x, y cluster.ShardID) int {
		a, b := &c.Shards[x], &c.Shards[y]
		switch {
		case a.Load > b.Load:
			return -1
		case a.Load < b.Load:
			return 1
		}
		am, bm := a.Static.MaxDim(), b.Static.MaxDim()
		switch {
		case am > bm:
			return -1
		case am < bm:
			return 1
		}
		return cmp.Compare(x, y)
	})
	for _, s := range st.pool {
		m := st.bestMachineFor(s)
		if m == cluster.Unassigned {
			return false
		}
		if err := st.cur.Place(s, m); err != nil {
			return false
		}
	}
	return true
}

// bestTwoMachinesFor is the full-fleet fallback scan for repairRegret: like
// bestMachineFor it returns the cheapest feasible machine (cost ties broken
// toward static slack), but it also reports the true second-lowest
// insertion cost so the caller can compute a meaningful regret. c2 is +Inf
// only when a single machine is feasible.
func (st *state) bestTwoMachinesFor(s cluster.ShardID) (best cluster.MachineID, c1, c2 float64) {
	ls := st.cur.Cluster().Shards[s].Load
	blocked := st.vacancyBlocked()
	best = cluster.Unassigned
	c1, c2 = math.Inf(1), math.Inf(1)
	bestSlack := -1.0
	for m, speed := range st.speeds {
		id := cluster.MachineID(m)
		cost := insertionCost(st.cur.Load(id), ls, speed)
		if (cost > c1+1e-12 && cost >= c2) || (blocked && st.cur.IsVacant(id)) || !st.cur.CanPlace(s, id) {
			continue // too expensive to be best or runner-up, held back, or infeasible
		}
		switch {
		case cost < c1-1e-12:
			c2 = c1
			best, c1 = id, cost
			bestSlack = st.cur.Free(id).MaxDim()
		case cost <= c1+1e-12:
			// ties the current best: it is also a runner-up cost
			if cost < c2 {
				c2 = cost
			}
			if slack := st.cur.Free(id).MaxDim(); slack > bestSlack {
				best, bestSlack = id, slack
			}
		case cost < c2:
			c2 = cost
		}
	}
	return best, c1, c2
}

// repairRegret is regret-2 insertion: always commit the shard whose best
// option beats its second-best by the most (it has the most to lose by
// waiting). To keep the O(pool²·machines) cost in check on large fleets,
// each evaluation scans a candidate subset — the lowest-utilization
// machines plus random extras — and falls back to a full scan only when
// the subset yields nothing feasible. The fallback computes a true
// second-best cost: leaving c2 at +Inf would inflate the regret to ~1e18
// and hand the shard top priority merely because the subset missed its
// alternatives.
func (st *state) repairRegret() bool {
	c := st.cur.Cluster()
	remaining := append(st.remainScratch[:0], st.pool...)
	st.remainScratch = remaining
	low := st.lowestMachines(lowCount + len(remaining))
	for len(remaining) > 0 {
		cands := st.candidateMachines(low)
		load, speed, used, held := st.readCandidates(cands)
		bestIdx := -1
		var bestM cluster.MachineID
		bestRegret := -1.0
		for i, s := range remaining {
			sh := &c.Shards[s]
			m1 := cluster.Unassigned
			c1, c2 := math.Inf(1), math.Inf(1)
			for j, id := range cands {
				cost := insertionCost(load[j], sh.Load, speed[j])
				if cost >= c2 || held[j] {
					continue // neither best nor runner-up, or held back
				}
				// An ungrouped shard's fit reads only the static usage taken
				// this step; a grouped one's also reads its replicas' homes.
				if sh.Group != 0 {
					if !st.cur.CanPlace(s, id) {
						continue
					}
				} else if !sh.Static.FitsWithin(used[j], c.Machines[id].Capacity) {
					continue
				}
				switch {
				case cost < c1:
					m1, c2, c1 = id, c1, cost
				case cost < c2:
					c2 = cost
				}
			}
			if m1 == cluster.Unassigned {
				// candidate subset failed: full scan for this shard
				m1, c1, c2 = st.bestTwoMachinesFor(s)
				if m1 == cluster.Unassigned {
					return false
				}
			}
			regret := c2 - c1
			if math.IsInf(regret, 1) {
				regret = 1e18 - c1 // single option: place before it disappears
			}
			if regret > bestRegret {
				bestIdx, bestM, bestRegret = i, m1, regret
			}
		}
		if bestIdx < 0 {
			return false
		}
		s := remaining[bestIdx]
		if err := st.cur.Place(s, bestM); err != nil {
			return false
		}
		st.rerank(low, bestM)
		remaining[bestIdx] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
	}
	return true
}

// readCandidates reads, aligned with cands, what regret's per-shard loop
// needs of each candidate machine: its load, its speed, its static usage and
// whether the vacancy contract holds it back. Nothing changes the placement
// between one step's reads and its Place, so each is read once per step
// rather than once per pool shard.
func (st *state) readCandidates(cands []cluster.MachineID) (load, speed []float64, used []vec.Vec, held []bool) {
	blocked := st.vacancyBlocked()
	load, speed, used, held = st.candLoad[:0], st.candSpeed[:0], st.candUsed[:0], st.candHeld[:0]
	for _, id := range cands {
		load = append(load, st.cur.Load(id))
		speed = append(speed, st.speeds[id])
		used = append(used, st.cur.Used(id))
		held = append(held, blocked && st.cur.IsVacant(id))
	}
	st.candLoad, st.candSpeed, st.candUsed, st.candHeld = load, speed, used, held
	return load, speed, used, held
}

// Regret repair's candidate subset: the lowCount lowest-utilization
// machines plus randCount random distinct extras.
const lowCount, randCount = 24, 8

// lowestMachines returns the k lowest-(utilization, ID) machines in
// ascending order, or nil on a fleet small enough that every machine is a
// candidate. A regret repair of p shards takes lowCount+p of them once and
// calls rerank after each placement instead of selecting over the whole
// fleet again. Placements only raise utilization, so every machine left out
// keeps ranking after every entry no placement has touched; after j ≤ p
// placements at least lowCount+p−j of those remain, so the first lowCount
// entries all rank before every machine left out — they are the fleet's
// true lowest lowCount, in order.
func (st *state) lowestMachines(k int) []ranked {
	n := st.cur.Cluster().NumMachines()
	if n <= lowCount+randCount {
		return nil
	}
	low := st.rankScratch[:0]
	for m := 0; m < n; m++ {
		low = keepLowest(low, k, ranked{st.cur.Utilization(cluster.MachineID(m)), m})
	}
	sortLowest(low)
	st.rankScratch = low
	return low
}

// rerank moves machine m, which just gained load, to its new place in low;
// a machine not in low ranked after all of it and still does.
func (st *state) rerank(low []ranked, m cluster.MachineID) {
	for i := range low {
		if low[i].id == int(m) {
			low[i].key = st.cur.Utilization(m)
			sink(low, i)
			return
		}
	}
}

// candidateMachines returns the insertion-candidate subset used by
// repairRegret: the first lowCount machines of low plus randCount random
// distinct extras (all machines when low is nil: the fleet is small). The
// extras are deduplicated: drawing the same machine twice (or one already
// in the lowest set) would silently shrink candidate diversity.
func (st *state) candidateMachines(low []ranked) []cluster.MachineID {
	n := st.cur.Cluster().NumMachines()
	out := st.candScratch[:0]
	if low == nil {
		for i := 0; i < n; i++ {
			out = append(out, cluster.MachineID(i))
		}
		st.candScratch = out
		return out
	}
	for _, e := range low[:lowCount] {
		out = append(out, cluster.MachineID(e.id))
	}

	// Distinct random extras from the rest of the fleet; rejection
	// sampling terminates because n > lowCount+randCount.
	for len(out) < lowCount+randCount {
		m := cluster.MachineID(st.rng.Intn(n))
		if !slices.Contains(out, m) {
			out = append(out, m)
		}
	}
	st.candScratch = out
	return out
}
