// Package ip encodes the paper's shard-reassignment problem as the linearly
// constrained integer program described in the abstract and solves it
// exactly by branch-and-bound over internal/lp's simplex relaxations. It is
// deliberately sized for the small instances of experiment T1, where it
// provides the optimality reference that SRA's quality gap is measured
// against.
//
// Variables (all implicitly ≥ 0):
//
//	x_{s,m} ∈ {0,1}  shard s placed on machine m
//	y_m     ∈ {0,1}  machine m ends vacant (returnable)
//	T       ≥ 0      normalized makespan
//
// minimize T subject to
//
//	Σ_m x_{s,m} = 1                        (every shard placed)
//	Σ_s r_s[d]·x_{s,m} ≤ C_m[d]            (static capacities, per resource)
//	Σ_s l_s·x_{s,m} − v_m·T ≤ 0            (T bounds every machine's util)
//	x_{s,m} + y_m ≤ 1                      (vacant machines host nothing)
//	Σ_m y_m ≥ K                            (K machines handed back)
package ip

import (
	"fmt"
	"math"

	"rexchange/internal/cluster"
	"rexchange/internal/lp"
	"rexchange/internal/vec"
)

// Model is the IP instance built from a cluster.
type Model struct {
	c *cluster.Cluster
	k int

	numX    int // S*M
	numVars int // x's + y's + T
	base    *lp.Problem
}

// BuildModel constructs the IP for cluster c with compensation count k.
func BuildModel(c *cluster.Cluster, k int) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s, m := c.NumShards(), c.NumMachines()
	if s == 0 || m == 0 {
		return nil, fmt.Errorf("ip: empty cluster (%d shards, %d machines)", s, m)
	}
	if k < 0 || k >= m {
		return nil, fmt.Errorf("ip: K=%d out of range for %d machines", k, m)
	}
	md := &Model{
		c:       c,
		k:       k,
		numX:    s * m,
		numVars: s*m + m + 1,
	}
	md.base = md.buildLP()
	return md, nil
}

// xIdx returns the column of x_{s,m}.
func (md *Model) xIdx(s, m int) int { return s*md.c.NumMachines() + m }

// yIdx returns the column of y_m.
func (md *Model) yIdx(m int) int { return md.numX + m }

// tIdx returns the column of T.
func (md *Model) tIdx() int { return md.numX + md.c.NumMachines() }

// buildLP assembles the relaxation shared by every node.
func (md *Model) buildLP() *lp.Problem {
	c := md.c
	S, M := c.NumShards(), c.NumMachines()
	p := lp.NewProblem(md.numVars)
	p.Objective[md.tIdx()] = 1

	// every shard placed exactly once
	for s := 0; s < S; s++ {
		co := make([]float64, md.numVars)
		for m := 0; m < M; m++ {
			co[md.xIdx(s, m)] = 1
		}
		p.AddConstraint(co, lp.EQ, 1)
	}
	// static capacities per machine and resource
	for m := 0; m < M; m++ {
		for d := 0; d < vec.NumResources; d++ {
			co := make([]float64, md.numVars)
			nonzero := false
			for s := 0; s < S; s++ {
				v := c.Shards[s].Static[d]
				co[md.xIdx(s, m)] = v
				if v != 0 {
					nonzero = true
				}
			}
			if nonzero {
				p.AddConstraint(co, lp.LE, c.Machines[m].Capacity[d])
			}
		}
	}
	// makespan links
	for m := 0; m < M; m++ {
		co := make([]float64, md.numVars)
		for s := 0; s < S; s++ {
			co[md.xIdx(s, m)] = c.Shards[s].Load
		}
		co[md.tIdx()] = -c.Machines[m].Speed
		p.AddConstraint(co, lp.LE, 0)
	}
	// vacancy links x_{s,m} + y_m ≤ 1
	for m := 0; m < M; m++ {
		for s := 0; s < S; s++ {
			co := make([]float64, md.numVars)
			co[md.xIdx(s, m)] = 1
			co[md.yIdx(m)] = 1
			p.AddConstraint(co, lp.LE, 1)
		}
	}
	// y_m ≤ 1
	for m := 0; m < M; m++ {
		co := make([]float64, md.numVars)
		co[md.yIdx(m)] = 1
		p.AddConstraint(co, lp.LE, 1)
	}
	// anti-affinity: replicas of one group never share a machine
	groups := map[int][]int{}
	for s := 0; s < S; s++ {
		if g := c.Shards[s].Group; g != 0 {
			groups[g] = append(groups[g], s)
		}
	}
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		for m := 0; m < M; m++ {
			co := make([]float64, md.numVars)
			for _, s := range members {
				co[md.xIdx(s, m)] = 1
			}
			p.AddConstraint(co, lp.LE, 1)
		}
	}
	// Σ y ≥ K
	if md.k > 0 {
		co := make([]float64, md.numVars)
		for m := 0; m < M; m++ {
			co[md.yIdx(m)] = 1
		}
		p.AddConstraint(co, lp.GE, float64(md.k))
	}
	return p
}

// Status reports the branch-and-bound outcome.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	NodeLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Result is the outcome of an exact solve.
type Result struct {
	Status Status
	// Assignment is the optimal shard→machine mapping (Status == Optimal).
	Assignment []cluster.MachineID
	// Objective is the optimal makespan T.
	Objective float64
	// RootBound is the LP relaxation value at the root node.
	RootBound float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
}

// Options bounds the search.
type Options struct {
	// MaxNodes caps explored nodes; 0 means 50000.
	MaxNodes int
	// IncumbentObj primes the upper bound (e.g. from an SRA solution);
	// 0 or negative means none.
	IncumbentObj float64
}

const intTol = 1e-6

// fixing pins one binary variable at a node.
type fixing struct {
	varIdx int
	value  float64
}

// node is one branch-and-bound node: its fixings and its parent bound.
type node struct {
	fixings []fixing
	bound   float64
}

// Solve runs depth-first branch-and-bound, branching on the most
// fractional binary variable and exploring the "round toward the LP
// value" child first.
func (md *Model) Solve(opt Options) (*Result, error) {
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 50000
	}
	incumbent := math.Inf(1)
	if opt.IncumbentObj > 0 {
		incumbent = opt.IncumbentObj + 1e-9
	}
	var best []float64

	res := &Result{Status: Infeasible, RootBound: math.NaN()}
	stack := []node{{bound: math.Inf(-1)}}
	for len(stack) > 0 {
		if res.Nodes >= maxNodes {
			res.Status = NodeLimit
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nd.bound >= incumbent-1e-9 {
			continue // parent bound already dominated
		}
		res.Nodes++

		sol, err := md.solveNode(nd.fixings)
		if err != nil {
			return nil, err
		}
		if res.Nodes == 1 && sol.Status == lp.Optimal {
			res.RootBound = sol.Obj
		}
		if sol.Status != lp.Optimal {
			continue // infeasible or pathological node: prune
		}
		if sol.Obj >= incumbent-1e-9 {
			continue // bound
		}
		branchVar := md.mostFractional(sol.X)
		if branchVar < 0 {
			// integral: new incumbent
			incumbent = sol.Obj
			best = append([]float64(nil), sol.X...)
			continue
		}
		frac := sol.X[branchVar]
		// push the far child first so the near child is explored next
		nearFirst := 1.0
		if frac < 0.5 {
			nearFirst = 0
		}
		far := node{fixings: appendFixing(nd.fixings, branchVar, 1-nearFirst), bound: sol.Obj}
		near := node{fixings: appendFixing(nd.fixings, branchVar, nearFirst), bound: sol.Obj}
		stack = append(stack, far, near)
	}

	if best != nil {
		if res.Status != NodeLimit {
			res.Status = Optimal
		}
		res.Objective = incumbent
		res.Assignment = md.extractAssignment(best)
	}
	return res, nil
}

// appendFixing copies-and-extends a fixing list (nodes share prefixes).
func appendFixing(fs []fixing, varIdx int, val float64) []fixing {
	out := make([]fixing, len(fs)+1)
	copy(out, fs)
	out[len(fs)] = fixing{varIdx, val}
	return out
}

// solveNode solves the relaxation with the node's fixings appended.
func (md *Model) solveNode(fixings []fixing) (*lp.Solution, error) {
	p := &lp.Problem{
		NumVars:     md.base.NumVars,
		Objective:   md.base.Objective,
		Constraints: md.base.Constraints[:len(md.base.Constraints):len(md.base.Constraints)],
	}
	for _, f := range fixings {
		co := make([]float64, f.varIdx+1)
		co[f.varIdx] = 1
		p.AddConstraint(co, lp.EQ, f.value)
	}
	return lp.Solve(p)
}

// mostFractional returns the binary column to branch on, or -1 when all
// binaries are integral. Fractionality is weighted by importance — the
// shard's load for x variables, above any load for y variables — so the
// search fixes the vacancy pattern and the heavy shards first, which is
// where the relaxation's makespan bound actually moves.
func (md *Model) mostFractional(x []float64) int {
	maxLoad := 0.0
	for i := range md.c.Shards {
		if l := md.c.Shards[i].Load; l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad == 0 {
		maxLoad = 1
	}
	M := md.c.NumMachines()
	best := -1
	bestScore := 0.0
	for j := 0; j < md.numX+M; j++ { // x's then y's
		f := x[j] - math.Floor(x[j])
		dist := math.Min(f, 1-f)
		if dist <= intTol {
			continue
		}
		weight := 2 * maxLoad // y variables: fix vacancy pattern first
		if j < md.numX {
			weight = md.c.Shards[j/M].Load
		}
		if score := dist * weight; score > bestScore {
			best = j
			bestScore = score
		}
	}
	return best
}

// extractAssignment reads the shard→machine mapping out of an integral x.
func (md *Model) extractAssignment(x []float64) []cluster.MachineID {
	S, M := md.c.NumShards(), md.c.NumMachines()
	out := make([]cluster.MachineID, S)
	for s := 0; s < S; s++ {
		out[s] = cluster.Unassigned
		for m := 0; m < M; m++ {
			if x[md.xIdx(s, m)] > 0.5 {
				out[s] = cluster.MachineID(m)
				break
			}
		}
	}
	return out
}
