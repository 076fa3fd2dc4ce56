package workload

import (
	"fmt"
	"math"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
)

// fitIndex finds the initial placement's best fit: the lexicographic
// minimum of (slack, machine ID) over the machines that can take a shard,
// where a machine's slack is the largest normalized free capacity the
// shard would leave it, Free(m).Sub(static).MaxRatio(Capacity). It holds
// one fitTree per distinct capacity vector, so a shard's search visits
// only the nodes that might hold a better machine, not every machine.
type fitIndex struct {
	p     *cluster.Placement
	trees []*fitTree
	tree  []int // machine → index in trees
	leaf  []int // machine → leaf index in its tree
}

// fitTree is a segment tree over the machines of one capacity tier. Leaf i
// (node leaves+i) is machs[i], in ascending machine ID order; node n's
// children are 2n and 2n+1. Each node holds the component-wise min and max
// of its machines' Used.
type fitTree struct {
	capacity vec.Vec
	machs    []cluster.MachineID
	leaves   int       // a power of two ≥ len(machs)
	minUsed  []vec.Vec // per node; +Inf on padding leaves
	maxUsed  []vec.Vec // per node; −Inf on padding leaves
}

// fitQuery is one shard's search across every tree: the shard and the
// best (slack, machine) found so far.
type fitQuery struct {
	p      *cluster.Placement
	s      cluster.ShardID
	static vec.Vec
	best   cluster.MachineID
	slack  float64
}

// newFitIndex builds one tree per distinct capacity vector of p's machines,
// in the order each vector first appears, from their current Used.
func newFitIndex(p *cluster.Placement) *fitIndex {
	c := p.Cluster()
	x := &fitIndex{p: p, tree: make([]int, c.NumMachines()), leaf: make([]int, c.NumMachines())}
	byCap := map[vec.Vec]int{}
	for m := range c.Machines {
		capV := c.Machines[m].Capacity
		ti, ok := byCap[capV]
		if !ok {
			ti = len(x.trees)
			byCap[capV] = ti
			x.trees = append(x.trees, &fitTree{capacity: capV})
		}
		t := x.trees[ti]
		x.tree[m], x.leaf[m] = ti, len(t.machs)
		t.machs = append(t.machs, cluster.MachineID(m))
	}
	for _, t := range x.trees {
		t.leaves = 1
		for t.leaves < len(t.machs) {
			t.leaves *= 2
		}
		t.minUsed = make([]vec.Vec, 2*t.leaves)
		t.maxUsed = make([]vec.Vec, 2*t.leaves)
		for i := 0; i < t.leaves; i++ {
			lo, hi := vec.Uniform(math.Inf(1)), vec.Uniform(math.Inf(-1))
			if i < len(t.machs) {
				lo = p.Used(t.machs[i])
				hi = lo
			}
			t.minUsed[t.leaves+i], t.maxUsed[t.leaves+i] = lo, hi
		}
		for n := t.leaves - 1; n >= 1; n-- {
			t.pull(n)
		}
	}
	return x
}

// place puts shard s on its best fit and refreshes that machine's path in
// its tree. It fails, naming the shard, when s fits nowhere.
func (x *fitIndex) place(s cluster.ShardID) error {
	static := x.p.Cluster().Shards[s].Static
	q := fitQuery{p: x.p, s: s, static: static, best: cluster.Unassigned, slack: math.Inf(1)}
	for _, t := range x.trees {
		t.visit(&q, 1, 0, t.leaves)
	}
	if q.best == cluster.Unassigned {
		return fmt.Errorf("workload: shard %d (static %v) does not fit anywhere; lower TargetFill", s, static)
	}
	if err := x.p.Place(s, q.best); err != nil {
		return err
	}
	x.trees[x.tree[q.best]].set(x.leaf[q.best], x.p.Used(q.best))
	return nil
}

// visit searches node, which covers leaves [first, first+width), unless no
// member can take q's shard or beat q's best. Both tests repeat the leaf's
// arithmetic on a bounding vector: if the node's component-wise min Used
// fails the fit, every member fails it, and the slack of its component-wise
// max Used is at most every member's slack, since correctly rounded
// subtraction and division are monotone. The node is skipped when that
// bound is above the best slack, or equal to it while the node's lowest
// machine ID is above the best's.
func (t *fitTree) visit(q *fitQuery, node, first, width int) {
	if !q.static.FitsWithin(t.minUsed[node], t.capacity) {
		return
	}
	bound := t.capacity.Sub(t.maxUsed[node]).Sub(q.static).MaxRatio(t.capacity)
	if bound > q.slack || !(bound < q.slack) && t.machs[first] > q.best {
		return
	}
	if width == 1 {
		m := t.machs[first]
		if !q.p.CanPlace(q.s, m) {
			return
		}
		slack := q.p.Free(m).Sub(q.static).MaxRatio(t.capacity)
		if slack < q.slack || !(slack > q.slack) && m < q.best {
			q.best, q.slack = m, slack
		}
		return
	}
	half := width / 2
	t.visit(q, 2*node, first, half)
	t.visit(q, 2*node+1, first+half, half)
}

// set records leaf i's new Used and refreshes its ancestors.
func (t *fitTree) set(i int, used vec.Vec) {
	n := t.leaves + i
	t.minUsed[n], t.maxUsed[n] = used, used
	for n > 1 {
		n /= 2
		t.pull(n)
	}
}

// pull recomputes node n from its children.
func (t *fitTree) pull(n int) {
	for d := 0; d < vec.NumResources; d++ {
		t.minUsed[n][d] = min(t.minUsed[2*n][d], t.minUsed[2*n+1][d])
		t.maxUsed[n][d] = max(t.maxUsed[2*n][d], t.maxUsed[2*n+1][d])
	}
}
