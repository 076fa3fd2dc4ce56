package core

import (
	"cmp"
	"math"
	"slices"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
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
// under (distance, shard ID) are kept in a bounded heap; that set is unique,
// so the shards may be offered in any order as long as none that belongs in
// it is left out. The seed machine's own shards go first — the only ones
// without the home term — then the walk goes outward from the seed in the
// (load, ID) order buildShawOrder made, nearer load gap first, and ends once
// a gap plus the home term exceeds the heap's root: both only grow along the
// walk, and the root only falls.
func (st *state) destroyRelated(q int) {
	n := st.cur.Cluster().NumShards()
	if n == 0 || q <= 0 {
		return
	}
	seed := st.rng.Intn(n)
	seedHome := st.cur.Home(cluster.ShardID(seed))
	r, k := int(st.shawRank[seed]), q-1
	near := st.rankScratch[:0]
	if k > 0 {
		for j, cnt := 0, st.cur.Count(seedHome); j < cnt; j++ {
			if s := st.cur.ShardAt(seedHome, j); int(s) != seed {
				i := int(st.shawRank[s])
				near = st.offerRelated(near, k, i, r, st.loadGap(i, r), false)
			}
		}
		lo, hi := r-1, r+1
		for lo >= 0 || hi < n {
			var i int
			if lo >= 0 && (hi >= n || st.loadGap(lo, r) <= st.loadGap(hi, r)) {
				i, lo = lo, lo-1
			} else {
				i, hi = hi, hi+1
			}
			gap := st.loadGap(i, r)
			if len(near) == k && gap+0.3 > near[0].key {
				break
			}
			if st.cur.Home(st.shawID[i]) != seedHome {
				near = st.offerRelated(near, k, i, r, gap, true)
			}
		}
	}
	sortLowest(near)
	st.rankScratch = near
	st.removeToPool(cluster.ShardID(seed))
	for _, e := range near {
		st.removeToPool(cluster.ShardID(e.id))
	}
}

// loadGap is the load term of the Shaw distance between the shards at ranks
// i and r of the Shaw order. Rounding is monotone, so it does not fall as i
// moves away from r on either side.
func (st *state) loadGap(i, r int) float64 {
	if st.loadScale > 0 {
		return math.Abs(st.shawLoad[i]-st.shawLoad[r]) / st.loadScale
	}
	return 0
}

// offerRelated scores the shard at rank i against the seed at rank r —
// load term, then static term, then the home term when away, summed in that
// order — and offers it to near, the heap of the k nearest. Adding a
// non-negative float never lowers a sum, so the load and home terms plus a
// lower bound on the static term bound the distance from below: one
// coordinate's gap, squared and rooted as Dist2 does it, is at most Dist2,
// whose sum of squares holds that square as one of its non-negative terms.
// Past the heap's root, the full static distance is not computed.
func (st *state) offerRelated(near []ranked, k, i, r int, gap float64, away bool) []ranked {
	if len(near) == k {
		bound := gap
		if st.staticScale > 0 {
			g := st.shawStatic[i] - st.shawStatic[r]
			bound += math.Sqrt(g*g) / st.staticScale
		}
		if away {
			bound += 0.3
		}
		if bound > near[0].key {
			return near
		}
	}
	d := gap
	if st.staticScale > 0 {
		c := st.cur.Cluster()
		d += c.Shards[st.shawID[i]].Static.Dist2(c.Shards[st.shawID[r]].Static) / st.staticScale
	}
	if away {
		d += 0.3
	}
	return keepLowest(near, k, ranked{d, int(st.shawID[i])})
}

// buildShawOrder fills Shaw removal's normalizers, its (load, ID) shard
// order with each shard's load and static coordinate of widest range (whose
// gap bounds Dist2 best) beside it, and every shard's rank.
func (st *state) buildShawOrder() {
	c := st.cur.Cluster()
	lo, hi := vec.Uniform(math.Inf(1)), vec.Uniform(math.Inf(-1))
	for i := range c.Shards {
		sh := &c.Shards[i]
		st.loadScale = max(st.loadScale, sh.Load)
		st.staticScale = max(st.staticScale, sh.Static.Norm2())
		for d, x := range sh.Static {
			lo[d], hi[d] = min(lo[d], x), max(hi[d], x)
		}
	}
	dim := 0
	for d := range hi {
		if hi[d]-lo[d] > hi[dim]-lo[dim] {
			dim = d
		}
	}
	n := c.NumShards()
	st.shawID = make([]cluster.ShardID, n)
	for i := range st.shawID {
		st.shawID[i] = cluster.ShardID(i)
	}
	slices.SortFunc(st.shawID, func(a, b cluster.ShardID) int {
		if o := cmp.Compare(c.Shards[a].Load, c.Shards[b].Load); o != 0 {
			return o
		}
		return cmp.Compare(a, b)
	})
	st.shawLoad, st.shawStatic, st.shawRank = make([]float64, n), make([]float64, n), make([]int32, n)
	for i, s := range st.shawID {
		st.shawLoad[i], st.shawStatic[i], st.shawRank[s] = c.Shards[s].Load, c.Shards[s].Static[dim], int32(i)
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

// compareRanked is the (key, id) order as a comparison function.
func compareRanked(a, b ranked) int {
	switch {
	case a.ranksAfter(b):
		return 1
	case b.ranksAfter(a):
		return -1
	}
	return 0
}

// selectLowest reorders h so that its first k entries are its k lowest,
// in no particular order, and returns them: quickselect with a
// median-of-three pivot, O(len(h)) expected. The entries' IDs are distinct,
// so the k lowest are one set whatever the pivots.
func selectLowest(h []ranked, k int) []ranked {
	k = min(k, len(h))
	for lo, hi := 0, len(h)-1; lo < hi; {
		mid := lo + (hi-lo)/2
		if h[lo].ranksAfter(h[mid]) {
			h[lo], h[mid] = h[mid], h[lo]
		}
		if h[mid].ranksAfter(h[hi]) {
			h[mid], h[hi] = h[hi], h[mid]
			if h[lo].ranksAfter(h[mid]) {
				h[lo], h[mid] = h[mid], h[lo]
			}
		}
		pivot := h[mid]
		i, j := lo, hi
		for i <= j {
			for pivot.ranksAfter(h[i]) {
				i++
			}
			for h[j].ranksAfter(pivot) {
				j--
			}
			if i <= j {
				h[i], h[j] = h[j], h[i]
				i, j = i+1, j-1
			}
		}
		// h[lo..j] ≤ pivot ≤ h[i..hi], and any entry between is the pivot
		switch {
		case k-1 <= j:
			hi = j
		case k-1 >= i:
			lo = i
		default:
			return h[:k]
		}
	}
	return h[:k]
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
