// Package cluster models a search-engine datacenter: machines with static
// resource capacities and a load-serving speed, index shards with static
// demands and dynamic query load, and placements (shard→machine assignments)
// with O(1) incremental accounting for the rebalancing search.
//
// The model follows the paper's setting: static resources (memory, disk,
// network) are hard constraints — and during a shard move they are consumed
// on both endpoints simultaneously — while the scalar query load is the
// quantity being balanced.
package cluster

import (
	"fmt"

	"rexchange/internal/vec"
)

// ShardID identifies a shard; it is the shard's index in Cluster.Shards.
type ShardID int

// MachineID identifies a machine; it is the machine's index in
// Cluster.Machines.
type MachineID int

// Unassigned marks a shard with no home machine (e.g. mid-destroy during
// large neighborhood search).
const Unassigned MachineID = -1

// Shard is one index shard: the unit of placement and migration.
type Shard struct {
	ID     ShardID `json:"id"`
	Name   string  `json:"name,omitempty"`
	Static vec.Vec `json:"static"` // memory/disk/net occupancy (hard constraints)
	Load   float64 `json:"load"`   // dynamic query load (balanced quantity)
	// Group is the shard's anti-affinity group: shards sharing a nonzero
	// Group are replicas of the same logical shard and must live on
	// distinct machines. 0 means unreplicated. It must not change once a
	// Placement over the cluster exists: placements index group members
	// at construction.
	Group int `json:"group,omitempty"`
}

// Machine is one server. Speed expresses heterogeneous serving capacity:
// a machine's utilization is load/Speed, so balancing targets equal
// utilization rather than equal raw load.
type Machine struct {
	ID       MachineID `json:"id"`
	Name     string    `json:"name,omitempty"`
	Capacity vec.Vec   `json:"capacity"`
	Speed    float64   `json:"speed"`
	Exchange bool      `json:"exchange,omitempty"` // borrowed exchange machine
}

// Cluster is an immutable instance description: the machine fleet and the
// shard population. Placements reference a Cluster and never mutate it.
type Cluster struct {
	Machines []Machine `json:"machines"`
	Shards   []Shard   `json:"shards"`
}

// Validate checks internal consistency: IDs match indices, capacities and
// speeds are positive, demands non-negative.
func (c *Cluster) Validate() error {
	for i, m := range c.Machines {
		if int(m.ID) != i {
			return fmt.Errorf("cluster: machine at index %d has ID %d", i, m.ID)
		}
		if !(vec.Vec{}).LEQ(m.Capacity) {
			return fmt.Errorf("cluster: machine %d has negative capacity %v", i, m.Capacity)
		}
		if m.Speed <= 0 {
			return fmt.Errorf("cluster: machine %d has non-positive speed %g", i, m.Speed)
		}
	}
	for i, s := range c.Shards {
		if int(s.ID) != i {
			return fmt.Errorf("cluster: shard at index %d has ID %d", i, s.ID)
		}
		if !s.Static.NonNegative() {
			return fmt.Errorf("cluster: shard %d has negative demand %v", i, s.Static)
		}
		if s.Load < 0 {
			return fmt.Errorf("cluster: shard %d has negative load %g", i, s.Load)
		}
	}
	return nil
}

// NumMachines returns the machine count.
func (c *Cluster) NumMachines() int { return len(c.Machines) }

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.Shards) }

// TotalLoad returns the sum of all shard loads.
func (c *Cluster) TotalLoad() float64 {
	t := 0.0
	for i := range c.Shards {
		t += c.Shards[i].Load
	}
	return t
}

// TotalSpeed returns the sum of machine speeds.
func (c *Cluster) TotalSpeed() float64 {
	t := 0.0
	for i := range c.Machines {
		t += c.Machines[i].Speed
	}
	return t
}

// TotalStatic returns the element-wise sum of shard static demands.
func (c *Cluster) TotalStatic() vec.Vec {
	var t vec.Vec
	for i := range c.Shards {
		t = t.Add(c.Shards[i].Static)
	}
	return t
}

// TotalCapacity returns the element-wise sum of machine capacities.
func (c *Cluster) TotalCapacity() vec.Vec {
	var t vec.Vec
	for i := range c.Machines {
		t = t.Add(c.Machines[i].Capacity)
	}
	return t
}

// ExchangeMachines returns the IDs of machines flagged as borrowed exchange
// machines.
func (c *Cluster) ExchangeMachines() []MachineID {
	var ids []MachineID
	for i := range c.Machines {
		if c.Machines[i].Exchange {
			ids = append(ids, MachineID(i))
		}
	}
	return ids
}

// WithExchange returns a new Cluster extended with k borrowed exchange
// machines, each with the given capacity and speed. The original cluster is
// not modified. The new machines carry Exchange=true and IDs following the
// existing fleet.
func (c *Cluster) WithExchange(k int, capacity vec.Vec, speed float64) *Cluster {
	nc := &Cluster{
		Machines: make([]Machine, 0, len(c.Machines)+k),
		Shards:   c.Shards, // shards are immutable; safe to share
	}
	nc.Machines = append(nc.Machines, c.Machines...)
	for i := 0; i < k; i++ {
		id := MachineID(len(nc.Machines))
		nc.Machines = append(nc.Machines, Machine{
			ID:       id,
			Name:     fmt.Sprintf("exchange-%d", i),
			Capacity: capacity,
			Speed:    speed,
			Exchange: true,
		})
	}
	return nc
}
