package core

import (
	"math"

	"rexchange/internal/cluster"
)

// destroyRandom removes q uniformly random shards via a partial
// Fisher-Yates shuffle over a persistent scratch permutation that is the
// identity between calls, so the sampled prefix is draw-for-draw what a fresh
// array would give and a call costs O(q), not O(shards).
func (st *state) destroyRandom(q int) {
	n := st.cur.Cluster().NumShards()
	if len(st.shardPerm) != n {
		st.shardPerm = make([]cluster.ShardID, n)
		for i := range st.shardPerm {
			st.shardPerm[i] = cluster.ShardID(i)
		}
	}
	ids := st.shardPerm
	q = min(q, n)
	for i := 0; i < q; i++ {
		j := i + st.rng.Intn(n-i)
		ids[i], ids[j] = ids[j], ids[i]
		st.removeToPool(ids[i])
	}
	// Back to the identity. A slot at or above q is displaced only by the
	// step that first picks it, and that step parks its value — the slot's
	// own index — below q for good: the displaced slots are 0..q-1 and the
	// picks at or above q.
	for _, s := range ids[:q] {
		if int(s) >= q {
			ids[s] = s
		}
	}
	for i := range ids[:q] {
		ids[i] = cluster.ShardID(i)
	}
}

// destroyWorst repeatedly removes the highest-load shard from the machine
// with the highest utilization (lowest ID among equals) — directly attacking
// the objective. The q hottest occupied machines are selected once: removals
// only lower utilization and only come off the head of that list, so the
// machines left out never change and an untouched entry still outranks them
// at every step — the head of the re-ranked list is the fleet's hottest.
func (st *state) destroyWorst(q int) {
	c := st.cur.Cluster()
	hottest := st.rankScratch[:0]
	for m := 0; m < c.NumMachines(); m++ {
		if id := cluster.MachineID(m); !st.cur.IsVacant(id) {
			hottest = keepLowest(hottest, q, ranked{-st.cur.Utilization(id), m})
		}
	}
	sortLowest(hottest)
	st.rankScratch = hottest
	for i := 0; i < q && len(hottest) > 0; i++ {
		worst := cluster.MachineID(hottest[0].id)
		var hot cluster.ShardID = -1
		hotLoad := -1.0
		st.cur.EachShardOn(worst, func(s cluster.ShardID) {
			if c.Shards[s].Load > hotLoad {
				hot, hotLoad = s, c.Shards[s].Load
			}
		})
		st.removeToPool(hot)
		if st.cur.IsVacant(worst) {
			hottest = hottest[1:]
			continue
		}
		hottest[0].key = -st.cur.Utilization(worst)
		sink(hottest, 0)
	}
}

// destroyRelated is Shaw removal: a random seed shard plus the q−1 shards
// most similar to it in (load, static footprint), with a bonus for sharing
// the seed's machine. Removing related shards together lets repair
// recombine them more freely than unrelated random picks. The q−1 nearest
// under (distance, shard ID) are kept in a bounded heap while scoring, so a
// call costs O(shards + q log q) rather than a sort of every shard.
func (st *state) destroyRelated(q int) {
	c := st.cur.Cluster()
	n := c.NumShards()
	if n == 0 || q <= 0 {
		return
	}
	seed := cluster.ShardID(st.rng.Intn(n))
	seedSh := &c.Shards[seed]
	seedHome := st.cur.Home(seed)

	near := st.rankScratch[:0]
	for i := 0; i < n; i++ {
		s := cluster.ShardID(i)
		if s == seed {
			continue
		}
		sh := &c.Shards[i]
		d := 0.0
		if st.loadScale > 0 {
			d += math.Abs(sh.Load-seedSh.Load) / st.loadScale
		}
		away := st.cur.Home(s) != seedHome
		// The load and home terms alone bound d from below (adding a
		// non-negative float never lowers a sum, in any order); past the
		// heap's root, the static term cannot bring the shard back in.
		if q > 1 && len(near) == q-1 {
			bound := d
			if away {
				bound += 0.3
			}
			if bound > near[0].key {
				continue
			}
		}
		if st.staticScale > 0 {
			d += sh.Static.Dist2(seedSh.Static) / st.staticScale
		}
		if away {
			d += 0.3
		}
		near = keepLowest(near, q-1, ranked{d, i})
	}
	sortLowest(near)
	st.rankScratch = near
	st.removeToPool(seed)
	for _, e := range near {
		st.removeToPool(cluster.ShardID(e.id))
	}
}

// destroyDrain empties one machine entirely, making it returnable as
// compensation. It targets lightly loaded machines with few shards; if no
// machine qualifies (all host more than q+4 shards), it falls back to
// random removal so the iteration still perturbs something.
func (st *state) destroyDrain(q int) {
	c := st.cur.Cluster()
	limit := q + 4
	// the 4 easiest-to-drain machines, ascending by (utilization, ID)
	cands := st.rankScratch[:0]
	for m := 0; m < c.NumMachines(); m++ {
		id := cluster.MachineID(m)
		cnt := st.cur.Count(id)
		if cnt == 0 || cnt > limit {
			continue
		}
		cands = keepLowest(cands, 4, ranked{st.cur.Utilization(id), m})
	}
	sortLowest(cands)
	st.rankScratch = cands
	if len(cands) == 0 {
		st.destroyRandom(q)
		return
	}
	// pick among them for diversification
	pick := cluster.MachineID(cands[st.rng.Intn(len(cands))].id)
	ids := st.drainIDScratch[:0]
	for i, n := 0, st.cur.Count(pick); i < n; i++ {
		ids = append(ids, st.cur.ShardAt(pick, i))
	}
	st.drainIDScratch = ids
	for _, s := range ids {
		st.removeToPool(s)
	}
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

// ranked is a shard or machine ID with the key an operator selects it by;
// the total order is (key, id).
type ranked struct {
	key float64
	id  int
}

// ranksAfter reports whether a orders after b: higher key first, ID as the
// deterministic tie-break.
func (a ranked) ranksAfter(b ranked) bool {
	if a.key > b.key {
		return true
	}
	if a.key < b.key {
		return false
	}
	return a.id > b.id
}

// keepLowest offers e to h, a max-heap of the k lowest-ranked entries
// offered so far: the root is the worst of them and is evicted when a better
// entry arrives.
func keepLowest(h []ranked, k int, e ranked) []ranked {
	if len(h) < k {
		h = append(h, e)
		for j := len(h) - 1; j > 0; { // sift up
			parent := (j - 1) / 2
			if !h[j].ranksAfter(h[parent]) {
				break
			}
			h[j], h[parent] = h[parent], h[j]
			j = parent
		}
	} else if k > 0 && h[0].ranksAfter(e) {
		h[0] = e
		siftDown(h)
	}
	return h
}

// siftDown restores the max-heap h after its root was replaced.
func siftDown(h []ranked) {
	for j := 0; ; {
		l, r := 2*j+1, 2*j+2
		big := j
		if l < len(h) && h[l].ranksAfter(h[big]) {
			big = l
		}
		if r < len(h) && h[r].ranksAfter(h[big]) {
			big = r
		}
		if big == j {
			return
		}
		h[j], h[big] = h[big], h[j]
		j = big
	}
}

// sink moves h[i], whose key just rose, right to its place in the ascending
// list h.
func sink(h []ranked, i int) {
	for ; i+1 < len(h) && h[i].ranksAfter(h[i+1]); i++ {
		h[i], h[i+1] = h[i+1], h[i]
	}
}

// sortLowest turns the heap keepLowest built into the same entries in
// ascending order, by heapsort: no comparator closure, nothing allocated.
func sortLowest(h []ranked) {
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end])
	}
}
