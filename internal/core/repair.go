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

// choice is an insertion scan's best machine so far, its cost and its
// static slack.
type choice struct {
	m           cluster.MachineID
	cost, slack float64
}

// offer applies bestMachineFor's rule to a feasible machine id of the given
// insertion cost and static slack, and returns the new best: a cost more
// than 1e-12 below the best's takes over, one within 1e-12 of it takes over
// only with more slack, and the best's cost moves only on the first kind.
func (c choice) offer(id cluster.MachineID, cost, slack float64) choice {
	if cost < c.cost-1e-12 {
		return choice{id, cost, slack}
	}
	if cost <= c.cost+1e-12 && slack > c.slack {
		c.m, c.slack = id, slack
	}
	return c
}

// bestMachineFor scans all machines for the cheapest feasible insertion of
// s, breaking cost ties toward the machine with more static slack (to keep
// future insertions feasible). Returns Unassigned when nothing fits. The
// cost comes first: a machine too expensive to change the answer is never
// asked whether s fits on it.
func (st *state) bestMachineFor(s cluster.ShardID) cluster.MachineID {
	ls := st.cur.Cluster().Shards[s].Load
	blocked := st.vacancyBlocked()
	best := choice{cluster.Unassigned, math.Inf(1), -1}
	for m, speed := range st.speeds {
		id := cluster.MachineID(m)
		cost := insertionCost(st.cur.Load(id), ls, speed)
		if cost > best.cost+1e-12 || (blocked && st.cur.IsVacant(id)) || !st.cur.CanPlace(s, id) {
			continue
		}
		best = best.offer(id, cost, st.cur.Free(id).MaxDim())
	}
	return best.m
}

// Greedy repair walks the greedyLow+p lowest-utilization machines, selected
// once per repair of p shards.
const greedyLow = 48

// clears reports whether a feasible machine of insertion cost c can take
// no part in bestMachineFor's answer once every feasible machine of cost at
// most top has been offered: were the best cost b ≤ top, c > b+1e-12 (it is
// skipped), and were c the best so far, every b ≤ top is below c−1e-12 (the
// first such machine takes over and erases it). Both sides are the rule's
// own float64 expressions, monotone in b and c.
func clears(top, c float64) bool { return c > top+1e-12 && c-1e-12 > top }

// costFloor bounds from below the insertion cost of a shard of load ls on
// every machine whose utilization is at least u. In reals such a machine
// costs at least u + w, w = ls/maxSpeed. The computed cost and utilization
// are three correctly rounded operations from their real values and the
// floor six more, each off by at most 2⁻⁵³ of its magnitude, or 2⁻¹⁰⁷⁵
// where the result is subnormal; the margin (|u|+w)·2⁻⁴⁸ + 2⁻¹⁰²⁰ covers
// them all.
func (st *state) costFloor(u, ls float64) float64 {
	w := ls / st.maxSpeed
	return (u + w) - (math.Abs(u)+w)*0x1p-48 - 0x1p-1020
}

// walkBest returns bestMachineFor(s) having visited only a prefix of low,
// which must hold the fleet's lowest-(utilization, ID) machines in that
// order. It stops once costFloor proves that every machine it has not
// visited clears the band: the feasible machines whose costs chain up from
// the lowest one, each not clearing the band's top so far. A feasible
// machine outside the band clears its top, so bestMachineFor's ID-order
// scan makes the band's first member its best whatever came before, and
// lets nothing outside the band change the best after; replaying the rule
// over the band in ID order gives the scan's answer. ok is false when low
// runs out first, or once the utilization stops rising before the floor
// clears the lowest cost: no later floor can then clear it, nor the cost
// of a machine still to come. A walk that stopped leaves its band in
// bandScratch, in ID order.
func (st *state) walkBest(s cluster.ShardID, low []ranked) (m cluster.MachineID, ok bool) {
	if len(low) == 0 {
		return cluster.Unassigned, false
	}
	ls := st.cur.Cluster().Shards[s].Load
	blocked := st.vacancyBlocked()
	band := st.bandScratch[:0]
	lowest, last := math.Inf(1), low[len(low)-1].key
	for i := 0; ; i++ {
		// past the prefix, the machines left rank after its last entry
		key := low[min(i, len(low)-1)].key
		floor := st.costFloor(key, ls)
		if clears(lowest, floor) {
			if top := bandTop(band, lowest); clears(top, floor) {
				return st.replayBand(band, top), true
			}
		} else if !(key < last) {
			break
		}
		if i == len(low) {
			break
		}
		id := cluster.MachineID(low[i].id)
		if (blocked && st.cur.IsVacant(id)) || !st.cur.CanPlace(s, id) {
			continue
		}
		cost := insertionCost(st.cur.Load(id), ls, st.speeds[id])
		band = append(band, ranked{cost, int(id)})
		lowest = min(lowest, cost)
	}
	st.bandScratch = band
	return cluster.Unassigned, false
}

// bandTop returns the top of the band over the visited feasible machines:
// starting from the lowest cost, it rises to any cost that does not clear
// it until every cost above it does. Raising the top only makes more costs
// fail to clear it, so the order of the rises does not matter.
func bandTop(visited []ranked, lowest float64) float64 {
	top := lowest
	for rose := true; rose; {
		rose = false
		for _, e := range visited {
			if e.key > top && !clears(top, e.key) {
				top, rose = e.key, true
			}
		}
	}
	return top
}

// replayBand keeps the visited machines of cost at most top — the band —
// sorts them by ID and applies bestMachineFor's rule to them in that order.
func (st *state) replayBand(visited []ranked, top float64) cluster.MachineID {
	band := visited[:0]
	for _, e := range visited {
		if e.key <= top {
			band = append(band, e)
		}
	}
	for i := 1; i < len(band); i++ {
		for j := i; j > 0 && band[j].id < band[j-1].id; j-- {
			band[j], band[j-1] = band[j-1], band[j]
		}
	}
	st.bandScratch = band
	best := choice{cluster.Unassigned, math.Inf(1), -1}
	for _, e := range band {
		id := cluster.MachineID(e.id)
		best = best.offer(id, e.key, st.cur.Free(id).MaxDim())
	}
	return best.m
}

// repairGreedy inserts the pool hardest-first (largest load, then largest
// static footprint) at each shard's cheapest feasible machine. Returns
// false when some shard fits nowhere (caller restores the snapshot). It
// selects the greedyLow+p lowest-utilization machines once and re-ranks
// after each placement, as regret repair does; after j placements the
// first greedyLow+p−j entries are the fleet's lowest in order, and each
// shard's answer is walked off them, or found by the full scan when the
// walk runs out of them or the fleet is small.
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
	low := st.lowestMachines(greedyLow + len(st.pool))
	for j, s := range st.pool {
		m, ok := st.walkBest(s, low[:max(len(low)-j, 0)])
		if !ok {
			m = st.bestMachineFor(s)
		}
		if m == cluster.Unassigned {
			return false
		}
		if err := st.cur.Place(s, m); err != nil {
			return false
		}
		st.rerank(low, m)
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
// candidate. A regret repair of p shards takes lowCount+p of them once (a
// greedy one greedyLow+p) and calls rerank after each placement instead of
// selecting over the whole fleet again. Placements only raise utilization,
// so every machine left out keeps ranking after every entry no placement
// has touched; after j ≤ p placements at least k−j of those remain, so the
// first k−j entries all rank before every machine left out — they are the
// fleet's true lowest k−j, in order.
func (st *state) lowestMachines(k int) []ranked {
	n := st.cur.Cluster().NumMachines()
	if n <= lowCount+randCount {
		return nil
	}
	all := st.rankScratch[:0]
	for m := 0; m < n; m++ {
		all = append(all, ranked{st.cur.Utilization(cluster.MachineID(m)), m})
	}
	st.rankScratch = all
	low := selectLowest(all, k)
	slices.SortFunc(low, compareRanked)
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
// in the lowest set) would silently shrink candidate diversity. A machine
// already taken carries this call's stamp.
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
	if len(st.candMark) != n {
		st.candMark = make([]uint32, n)
	}
	if st.candGen++; st.candGen == 0 { // wrapped: no stamp in use may match
		clear(st.candMark)
		st.candGen = 1
	}
	for _, e := range low[:lowCount] {
		out = append(out, cluster.MachineID(e.id))
		st.candMark[e.id] = st.candGen
	}

	// Distinct random extras from the rest of the fleet; rejection
	// sampling terminates because n > lowCount+randCount.
	for len(out) < lowCount+randCount {
		if m := st.rng.Intn(n); st.candMark[m] != st.candGen {
			st.candMark[m] = st.candGen
			out = append(out, cluster.MachineID(m))
		}
	}
	st.candScratch = out
	return out
}
