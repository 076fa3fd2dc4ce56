package cluster

import (
	"math"
	"strings"
	"testing"

	"rexchange/internal/vec"
)

func buildPlacement(t *testing.T, assign []MachineID) *Placement {
	t.Helper()
	c := &Cluster{
		Machines: []Machine{
			{ID: 0, Capacity: vec.New(10, 10, 10), Speed: 1},
			{ID: 1, Capacity: vec.New(10, 10, 10), Speed: 1},
			{ID: 2, Capacity: vec.New(20, 20, 20), Speed: 2},
		},
		Shards: []Shard{
			{ID: 0, Static: vec.New(2, 2, 2), Load: 4},
			{ID: 1, Static: vec.New(2, 2, 2), Load: 4},
			{ID: 2, Static: vec.New(5, 1, 1), Load: 8},
			{ID: 3, Static: vec.New(1, 1, 1), Load: 2},
		},
	}
	p, err := FromAssignment(c, assign)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestComputeBalanced(t *testing.T) {
	// loads: m0=4, m1=4+2=6... choose a perfectly balanced one instead:
	// m0: shard0 (4), m1: shard1 (4), m2: shard2 (8) with speed 2 → util 4.
	p := buildPlacement(t, []MachineID{0, 1, 2, 2})
	rep := p.Report()
	if rep.Machines != 3 || rep.Vacant != 0 {
		t.Fatalf("machines/vacant = %d/%d", rep.Machines, rep.Vacant)
	}
	// utils: 4, 4, (8+2)/2=5 → max 5, mean = 18/4 = 4.5
	if rep.MaxUtil != 5 {
		t.Errorf("MaxUtil = %v", rep.MaxUtil)
	}
	if rep.MeanUtil != 4.5 {
		t.Errorf("MeanUtil = %v", rep.MeanUtil)
	}
	if math.Abs(rep.Imbalance-5.0/4.5) > 1e-12 {
		t.Errorf("Imbalance = %v", rep.Imbalance)
	}
	if rep.MinUtil != 4 {
		t.Errorf("MinUtil = %v", rep.MinUtil)
	}
}

func TestComputeVacantExcluded(t *testing.T) {
	p := buildPlacement(t, []MachineID{0, 0, 0, 0})
	rep := p.Report()
	if rep.Machines != 1 || rep.Vacant != 2 {
		t.Fatalf("machines/vacant = %d/%d", rep.Machines, rep.Vacant)
	}
	// Single serving machine: max == mean → imbalance 1.
	if rep.Imbalance != 1 {
		t.Errorf("Imbalance = %v", rep.Imbalance)
	}
	if rep.MaxUtil != 18 {
		t.Errorf("MaxUtil = %v", rep.MaxUtil)
	}
}

func TestComputeEmptyPlacement(t *testing.T) {
	c := &Cluster{
		Machines: []Machine{{ID: 0, Capacity: vec.Uniform(1), Speed: 1}},
	}
	p := NewPlacement(c)
	rep := p.Report()
	if rep.Machines != 0 || rep.Vacant != 1 {
		t.Fatalf("machines/vacant = %d/%d", rep.Machines, rep.Vacant)
	}
	if rep.MaxUtil != 0 || rep.Imbalance != 0 {
		t.Errorf("zero report expected, got %+v", rep)
	}
}

func TestStaticPressure(t *testing.T) {
	// shard2 uses 5 mem on m0 (cap 10) → pressure mem ≥ 0.5
	p := buildPlacement(t, []MachineID{1, 1, 0, 0})
	rep := p.Report()
	if rep.StaticPressure[vec.Memory] != 0.6 { // (5+1)/10
		t.Errorf("mem pressure = %v", rep.StaticPressure[vec.Memory])
	}
	if rep.StaticPressure[vec.Disk] != 0.4 { // (2+2)/10 on m1
		t.Errorf("disk pressure = %v", rep.StaticPressure[vec.Disk])
	}
}

func TestZeroLoadImbalance(t *testing.T) {
	c := &Cluster{
		Machines: []Machine{{ID: 0, Capacity: vec.Uniform(10), Speed: 1}},
		Shards:   []Shard{{ID: 0, Static: vec.Uniform(1), Load: 0}},
	}
	p, _ := FromAssignment(c, []MachineID{0})
	rep := p.Report()
	if rep.Imbalance != 1 {
		t.Errorf("Imbalance with zero load = %v, want 1", rep.Imbalance)
	}
}

func TestReportString(t *testing.T) {
	p := buildPlacement(t, []MachineID{0, 1, 2, 2})
	s := p.Report().String()
	for _, want := range []string{"machines=3", "imb=", "pressure="} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}
