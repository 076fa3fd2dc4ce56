package cluster

import (
	"testing"

	"rexchange/internal/vec"
)

// testCluster builds a small 3-machine, 4-shard cluster used across tests.
func testCluster() *Cluster {
	return &Cluster{
		Machines: []Machine{
			{ID: 0, Name: "m0", Capacity: vec.New(10, 10, 10), Speed: 1},
			{ID: 1, Name: "m1", Capacity: vec.New(10, 10, 10), Speed: 2},
			{ID: 2, Name: "m2", Capacity: vec.New(4, 4, 4), Speed: 1},
		},
		Shards: []Shard{
			{ID: 0, Name: "s0", Static: vec.New(3, 2, 1), Load: 5},
			{ID: 1, Name: "s1", Static: vec.New(2, 2, 2), Load: 3},
			{ID: 2, Name: "s2", Static: vec.New(4, 4, 4), Load: 8},
			{ID: 3, Name: "s3", Static: vec.New(1, 1, 1), Load: 2},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := testCluster().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Cluster)
	}{
		{"machine id mismatch", func(c *Cluster) { c.Machines[1].ID = 7 }},
		{"negative capacity", func(c *Cluster) { c.Machines[0].Capacity[0] = -1 }},
		{"zero speed", func(c *Cluster) { c.Machines[2].Speed = 0 }},
		{"shard id mismatch", func(c *Cluster) { c.Shards[0].ID = 9 }},
		{"negative demand", func(c *Cluster) { c.Shards[1].Static[2] = -3 }},
		{"negative load", func(c *Cluster) { c.Shards[3].Load = -1 }},
	}
	for _, tc := range cases {
		c := testCluster()
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestTotals(t *testing.T) {
	c := testCluster()
	if got := c.TotalLoad(); got != 18 {
		t.Errorf("TotalLoad = %v", got)
	}
	if got := c.TotalSpeed(); got != 4 {
		t.Errorf("TotalSpeed = %v", got)
	}
	if got := c.TotalStatic(); got != vec.New(10, 9, 8) {
		t.Errorf("TotalStatic = %v", got)
	}
	if got := c.TotalCapacity(); got != vec.New(24, 24, 24) {
		t.Errorf("TotalCapacity = %v", got)
	}
	if c.NumMachines() != 3 || c.NumShards() != 4 {
		t.Errorf("counts = %d/%d", c.NumMachines(), c.NumShards())
	}
}

func TestWithExchange(t *testing.T) {
	c := testCluster()
	e := c.WithExchange(2, vec.New(8, 8, 8), 1.5)
	if e.NumMachines() != 5 {
		t.Fatalf("NumMachines = %d", e.NumMachines())
	}
	if c.NumMachines() != 3 {
		t.Fatal("original cluster mutated")
	}
	ex := e.ExchangeMachines()
	if len(ex) != 2 || ex[0] != 3 || ex[1] != 4 {
		t.Fatalf("ExchangeMachines = %v", ex)
	}
	for _, m := range ex {
		mm := e.Machines[m]
		if !mm.Exchange || mm.Capacity != vec.New(8, 8, 8) || mm.Speed != 1.5 {
			t.Errorf("exchange machine %d malformed: %+v", m, mm)
		}
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.ExchangeMachines()) != 0 {
		t.Error("base cluster should have no exchange machines")
	}
}
