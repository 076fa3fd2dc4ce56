package ip

import (
	"math"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
)

// twoMachine builds a 2-machine, n-shard cluster with uniform static 1 and
// the given loads; capacities are generous.
func twoMachine(loads ...float64) *cluster.Cluster {
	c := &cluster.Cluster{
		Machines: []cluster.Machine{
			{ID: 0, Capacity: vec.Uniform(100), Speed: 1},
			{ID: 1, Capacity: vec.Uniform(100), Speed: 1},
		},
	}
	for i, l := range loads {
		c.Shards = append(c.Shards, cluster.Shard{ID: cluster.ShardID(i), Static: vec.Uniform(1), Load: l})
	}
	return c
}

func TestExactPartition(t *testing.T) {
	// loads 4,3,2,1 over two machines → optimal makespan 5 (4+1 | 3+2).
	md, err := BuildModel(twoMachine(4, 3, 2, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := md.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-5) > 1e-6 {
		t.Errorf("objective = %v, want 5", res.Objective)
	}
	// verify the assignment really achieves it
	p, err := cluster.FromAssignment(md.c, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	maxU := math.Max(p.Utilization(0), p.Utilization(1))
	if math.Abs(maxU-5) > 1e-6 {
		t.Errorf("assignment makespan = %v", maxU)
	}
}

func TestStaticCapacityBinds(t *testing.T) {
	// Two shards of static 2 cannot share a machine with capacity 3, even
	// though load-wise they would: optimal must split them.
	c := &cluster.Cluster{
		Machines: []cluster.Machine{
			{ID: 0, Capacity: vec.Uniform(3), Speed: 1},
			{ID: 1, Capacity: vec.Uniform(3), Speed: 1},
		},
		Shards: []cluster.Shard{
			{ID: 0, Static: vec.Uniform(2), Load: 1},
			{ID: 1, Static: vec.Uniform(2), Load: 1},
		},
	}
	md, err := BuildModel(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := md.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Assignment[0] == res.Assignment[1] {
		t.Error("shards co-located despite static capacity")
	}
}

func TestVacancyConstraint(t *testing.T) {
	// Three machines, K=1: one machine must end vacant, so two shards of
	// load 2 each give makespan 2 on two machines — not 4/3 on three.
	c := &cluster.Cluster{
		Machines: []cluster.Machine{
			{ID: 0, Capacity: vec.Uniform(10), Speed: 1},
			{ID: 1, Capacity: vec.Uniform(10), Speed: 1},
			{ID: 2, Capacity: vec.Uniform(10), Speed: 1},
		},
		Shards: []cluster.Shard{
			{ID: 0, Static: vec.Uniform(1), Load: 2},
			{ID: 1, Static: vec.Uniform(1), Load: 2},
		},
	}
	md, err := BuildModel(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := md.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-2) > 1e-6 {
		t.Errorf("objective = %v, want 2", res.Objective)
	}
	p, _ := cluster.FromAssignment(md.c, res.Assignment)
	if p.NumVacant() < 1 {
		t.Error("vacancy constraint violated")
	}
}

func TestHeterogeneousSpeeds(t *testing.T) {
	// One fast (speed 2) and one slow machine; loads 6 and 2. Optimal:
	// heavy shard on the fast machine → utils 3 and 2 → makespan 3.
	c := &cluster.Cluster{
		Machines: []cluster.Machine{
			{ID: 0, Capacity: vec.Uniform(10), Speed: 2},
			{ID: 1, Capacity: vec.Uniform(10), Speed: 1},
		},
		Shards: []cluster.Shard{
			{ID: 0, Static: vec.Uniform(1), Load: 6},
			{ID: 1, Static: vec.Uniform(1), Load: 2},
		},
	}
	md, err := BuildModel(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := md.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-3) > 1e-6 {
		t.Errorf("objective = %v, want 3", res.Objective)
	}
	if res.Assignment[0] != 0 {
		t.Errorf("heavy shard on machine %d, want fast machine 0", res.Assignment[0])
	}
}

func TestInfeasibleModel(t *testing.T) {
	// Static demand exceeds every machine: infeasible.
	c := &cluster.Cluster{
		Machines: []cluster.Machine{{ID: 0, Capacity: vec.Uniform(1), Speed: 1}},
		Shards:   []cluster.Shard{{ID: 0, Static: vec.Uniform(5), Load: 1}},
	}
	md, err := BuildModel(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := md.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestIncumbentPruning(t *testing.T) {
	md, err := BuildModel(twoMachine(4, 3, 2, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	noHint, err := md.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := md.Solve(Options{IncumbentObj: 5})
	if err != nil {
		t.Fatal(err)
	}
	if hinted.Status != Optimal && hinted.Status != Infeasible {
		t.Fatalf("hinted status = %v", hinted.Status)
	}
	// A tight incumbent can only reduce explored nodes.
	if hinted.Nodes > noHint.Nodes {
		t.Errorf("incumbent increased nodes: %d > %d", hinted.Nodes, noHint.Nodes)
	}
}

func TestNodeLimit(t *testing.T) {
	md, err := BuildModel(twoMachine(5, 4, 3, 3, 2, 2, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := md.Solve(Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != NodeLimit {
		t.Fatalf("status = %v, want node-limit", res.Status)
	}
}

func TestBuildModelValidation(t *testing.T) {
	if _, err := BuildModel(&cluster.Cluster{}, 0); err == nil {
		t.Error("expected error for empty cluster")
	}
	c := twoMachine(1)
	if _, err := BuildModel(c, 2); err == nil {
		t.Error("expected error for K ≥ machines")
	}
	if _, err := BuildModel(c, -1); err == nil {
		t.Error("expected error for negative K")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible", NodeLimit: "node-limit",
		Status(7): "status(7)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

// TestBruteForceAgreement cross-checks branch-and-bound against exhaustive
// enumeration on tiny instances.
func TestBruteForceAgreement(t *testing.T) {
	cases := [][]float64{
		{3, 2, 1},
		{5, 4, 3, 2},
		{7, 1, 1, 1, 1},
		{2, 2, 2, 2, 2},
	}
	for _, loads := range cases {
		c := twoMachine(loads...)
		md, err := BuildModel(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := md.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceMakespan(loads)
		if math.Abs(res.Objective-want) > 1e-6 {
			t.Errorf("loads %v: B&B %v, brute force %v", loads, res.Objective, want)
		}
	}
}

func bruteForceMakespan(loads []float64) float64 {
	n := len(loads)
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		var a, b float64
		for i, l := range loads {
			if mask&(1<<i) != 0 {
				a += l
			} else {
				b += l
			}
		}
		if m := math.Max(a, b); m < best {
			best = m
		}
	}
	return best
}
