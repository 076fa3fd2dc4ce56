package core

import (
	"cmp"
	"math"
	"slices"

	"rexchange/internal/cluster"
)

// destroyRandom removes q uniformly random shards via a partial
// Fisher-Yates shuffle over a persistent scratch permutation. The buffer is
// reset to the identity each call — same cost as the allocation it replaces
// and it keeps the sampled prefix identical draw-for-draw to a fresh array —
// so the hot loop allocates nothing without perturbing the trajectory.
func (st *state) destroyRandom(q int) {
	n := st.cur.Cluster().NumShards()
	if len(st.shardPerm) != n {
		st.shardPerm = make([]cluster.ShardID, n)
	}
	for i := range st.shardPerm {
		st.shardPerm[i] = cluster.ShardID(i)
	}
	ids := st.shardPerm
	for i := 0; i < q && i < n; i++ {
		j := i + st.rng.Intn(n-i)
		ids[i], ids[j] = ids[j], ids[i]
		st.removeToPool(ids[i])
	}
}

// destroyWorst repeatedly removes the highest-load shard from the machine
// with the highest utilization — directly attacking the objective.
func (st *state) destroyWorst(q int) {
	c := st.cur.Cluster()
	for i := 0; i < q; i++ {
		worst := cluster.Unassigned
		worstU := -1.0
		for m := 0; m < c.NumMachines(); m++ {
			id := cluster.MachineID(m)
			if st.cur.IsVacant(id) {
				continue
			}
			if u := st.cur.Utilization(id); u > worstU {
				worst, worstU = id, u
			}
		}
		if worst == cluster.Unassigned {
			return
		}
		var hot cluster.ShardID = -1
		hotLoad := -1.0
		st.cur.EachShardOn(worst, func(s cluster.ShardID) {
			if c.Shards[s].Load > hotLoad {
				hot, hotLoad = s, c.Shards[s].Load
			}
		})
		if hot < 0 {
			return
		}
		st.removeToPool(hot)
	}
}

// destroyRelated is Shaw removal: a random seed shard plus the q−1 shards
// most similar to it in (load, static footprint), with a bonus for sharing
// the seed's machine. Removing related shards together lets repair
// recombine them more freely than unrelated random picks.
func (st *state) destroyRelated(q int) {
	c := st.cur.Cluster()
	n := c.NumShards()
	if n == 0 || q <= 0 {
		return
	}
	seed := cluster.ShardID(st.rng.Intn(n))
	seedSh := &c.Shards[seed]
	seedHome := st.cur.Home(seed)

	loadScale := maxShardLoad(c)
	staticScale := maxShardStatic(c)

	all := st.relScratch[:0]
	for i := 0; i < n; i++ {
		s := cluster.ShardID(i)
		if s == seed {
			continue
		}
		sh := &c.Shards[i]
		d := 0.0
		if loadScale > 0 {
			d += math.Abs(sh.Load-seedSh.Load) / loadScale
		}
		if staticScale > 0 {
			d += sh.Static.Dist2(seedSh.Static) / staticScale
		}
		if st.cur.Home(s) != seedHome {
			d += 0.3
		}
		all = append(all, relScored{s, d})
	}
	st.relScratch = all
	// ascending by (dist, shard ID)
	slices.SortFunc(all, func(a, b relScored) int {
		switch {
		case a.dist < b.dist:
			return -1
		case a.dist > b.dist:
			return 1
		}
		return cmp.Compare(a.s, b.s)
	})
	st.removeToPool(seed)
	for i := 0; i < q-1 && i < len(all); i++ {
		st.removeToPool(all[i].s)
	}
}

// relScored pairs a shard with its Shaw-relatedness distance to the seed.
type relScored struct {
	s    cluster.ShardID
	dist float64
}

// destroyDrain empties one machine entirely, making it returnable as
// compensation. It targets lightly loaded machines with few shards; if no
// machine qualifies (all host more than q+4 shards), it falls back to
// random removal so the iteration still perturbs something.
func (st *state) destroyDrain(q int) {
	c := st.cur.Cluster()
	limit := q + 4
	cands := st.drainScratch[:0]
	for m := 0; m < c.NumMachines(); m++ {
		id := cluster.MachineID(m)
		cnt := st.cur.Count(id)
		if cnt == 0 || cnt > limit {
			continue
		}
		cands = append(cands, drainCand{id, st.cur.Utilization(id)})
	}
	st.drainScratch = cands
	if len(cands) == 0 {
		st.destroyRandom(q)
		return
	}
	// ascending by (utilization, machine ID)
	slices.SortFunc(cands, func(a, b drainCand) int {
		switch {
		case a.util < b.util:
			return -1
		case a.util > b.util:
			return 1
		}
		return cmp.Compare(a.m, b.m)
	})
	// pick among the 4 easiest-to-drain machines for diversification
	pick := cands[st.rng.Intn(min(4, len(cands)))]
	ids := st.drainIDScratch[:0]
	for i, n := 0, st.cur.Count(pick.m); i < n; i++ {
		ids = append(ids, st.cur.ShardAt(pick.m, i))
	}
	st.drainIDScratch = ids
	for _, s := range ids {
		st.removeToPool(s)
	}
}

// drainCand is a drainable machine and its utilization.
type drainCand struct {
	m    cluster.MachineID
	util float64
}

// removeToPool unassigns s and records it for repair.
func (st *state) removeToPool(s cluster.ShardID) {
	if st.cur.Home(s) == cluster.Unassigned {
		return
	}
	if err := st.cur.Remove(s); err == nil {
		st.pool = append(st.pool, s)
	}
}

func maxShardLoad(c *cluster.Cluster) float64 {
	m := 0.0
	for i := range c.Shards {
		if c.Shards[i].Load > m {
			m = c.Shards[i].Load
		}
	}
	return m
}

func maxShardStatic(c *cluster.Cluster) float64 {
	m := 0.0
	for i := range c.Shards {
		if d := c.Shards[i].Static.Norm2(); d > m {
			m = d
		}
	}
	return m
}
