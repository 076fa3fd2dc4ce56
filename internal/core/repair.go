package core

import (
	"cmp"
	"math"
	"slices"

	"rexchange/internal/cluster"
)

// canInsert reports whether shard s may be placed on machine m: static
// capacity must hold, and — the resource-exchange contract — occupying a
// currently vacant machine is allowed only while more than K machines are
// vacant, so that K can still be returned.
func (st *state) canInsert(s cluster.ShardID, m cluster.MachineID) bool {
	if st.cur.IsVacant(m) && st.cur.NumVacant() <= st.k {
		return false
	}
	return st.cur.CanPlace(s, m)
}

// insertCost is the utilization machine m would reach after hosting s —
// the greedy criterion that directly minimizes the makespan objective.
func (st *state) insertCost(s cluster.ShardID, m cluster.MachineID) float64 {
	c := st.cur.Cluster()
	return (st.cur.Load(m) + c.Shards[s].Load) / c.Machines[m].Speed
}

// bestMachineFor scans all machines for the cheapest feasible insertion of
// s, breaking cost ties toward the machine with more static slack (to keep
// future insertions feasible). Returns Unassigned when nothing fits.
func (st *state) bestMachineFor(s cluster.ShardID) (cluster.MachineID, float64) {
	c := st.cur.Cluster()
	best := cluster.Unassigned
	bestCost := math.Inf(1)
	bestSlack := -1.0
	for m := 0; m < c.NumMachines(); m++ {
		id := cluster.MachineID(m)
		if !st.canInsert(s, id) {
			continue
		}
		cost := st.insertCost(s, id)
		if cost < bestCost-1e-12 {
			best, bestCost = id, cost
			bestSlack = st.cur.Free(id).MaxDim()
		} else if cost <= bestCost+1e-12 {
			if slack := st.cur.Free(id).MaxDim(); slack > bestSlack {
				best, bestSlack = id, slack
			}
		}
	}
	return best, bestCost
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
		m, _ := st.bestMachineFor(s)
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
	c := st.cur.Cluster()
	best = cluster.Unassigned
	c1, c2 = math.Inf(1), math.Inf(1)
	bestSlack := -1.0
	for m := 0; m < c.NumMachines(); m++ {
		id := cluster.MachineID(m)
		if !st.canInsert(s, id) {
			continue
		}
		cost := st.insertCost(s, id)
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
	remaining := append(st.remainScratch[:0], st.pool...)
	st.remainScratch = remaining
	for len(remaining) > 0 {
		cands := st.candidateMachines()
		bestIdx := -1
		var bestM cluster.MachineID
		bestRegret := -1.0
		for i, s := range remaining {
			m1 := cluster.Unassigned
			c1, c2 := math.Inf(1), math.Inf(1)
			for _, id := range cands {
				if !st.canInsert(s, id) {
					continue
				}
				cost := st.insertCost(s, id)
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
		remaining[bestIdx] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
	}
	return true
}

// machUtil is a machine with its utilization, ordered by (util, ID).
type machUtil struct {
	u float64
	m cluster.MachineID
}

// ranksAfter reports whether a orders after b: higher utilization first,
// machine ID as the deterministic tie-break.
func (a machUtil) ranksAfter(b machUtil) bool {
	if a.u > b.u {
		return true
	}
	if a.u < b.u {
		return false
	}
	return a.m > b.m
}

// candidateMachines returns the insertion-candidate subset used by
// repairRegret: the 24 lowest-utilization machines plus 8 random distinct
// extras (all machines when the fleet is small). The lowest set comes from
// a bounded max-heap partial selection — O(n log 24) instead of sorting the
// whole fleet — and the random extras are deduplicated: drawing the same
// machine twice (or one already in the lowest set) would silently shrink
// candidate diversity. All buffers are reused across calls.
func (st *state) candidateMachines() []cluster.MachineID {
	c := st.cur.Cluster()
	n := c.NumMachines()
	const lowCount, randCount = 24, 8
	out := st.candScratch[:0]
	if n <= lowCount+randCount {
		for i := 0; i < n; i++ {
			out = append(out, cluster.MachineID(i))
		}
		st.candScratch = out
		return out
	}

	// Bounded max-heap over (util, ID): the root is the worst of the best
	// lowCount seen so far and is evicted whenever a better machine
	// arrives.
	h := st.candHeap[:0]
	for i := 0; i < n; i++ {
		e := machUtil{st.cur.Utilization(cluster.MachineID(i)), cluster.MachineID(i)}
		if len(h) < lowCount {
			h = append(h, e)
			for j := len(h) - 1; j > 0; { // sift up
				parent := (j - 1) / 2
				if !h[j].ranksAfter(h[parent]) {
					break
				}
				h[j], h[parent] = h[parent], h[j]
				j = parent
			}
			continue
		}
		if !h[0].ranksAfter(e) {
			continue
		}
		h[0] = e
		for j := 0; ; { // sift down
			l, r := 2*j+1, 2*j+2
			big := j
			if l < len(h) && h[l].ranksAfter(h[big]) {
				big = l
			}
			if r < len(h) && h[r].ranksAfter(h[big]) {
				big = r
			}
			if big == j {
				break
			}
			h[j], h[big] = h[big], h[j]
			j = big
		}
	}
	st.candHeap = h

	// Emit the selection ascending by (util, ID) — the order the previous
	// full sort produced — via insertion sort (24 elements, no closure).
	for i := 1; i < len(h); i++ {
		for j := i; j > 0 && h[j-1].ranksAfter(h[j]); j-- {
			h[j], h[j-1] = h[j-1], h[j]
		}
	}
	for _, e := range h {
		out = append(out, e.m)
	}

	// Distinct random extras from the rest of the fleet; rejection
	// sampling terminates because n > lowCount+randCount.
	for len(out) < lowCount+randCount {
		m := cluster.MachineID(st.rng.Intn(n))
		dup := false
		for _, seen := range out {
			if seen == m {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, m)
		}
	}
	st.candScratch = out
	return out
}
