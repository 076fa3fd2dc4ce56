package cluster

import (
	"math/rand"
	"testing"

	"rexchange/internal/vec"
)

// benchPlacement builds a 200-machine, 3000-shard placement for the
// micro-benchmarks.
func benchPlacement(b *testing.B) *Placement {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	c := &Cluster{}
	const nm, ns = 200, 3000
	for m := 0; m < nm; m++ {
		c.Machines = append(c.Machines, Machine{
			ID: MachineID(m), Capacity: vec.Uniform(1e9), Speed: 1,
		})
	}
	assign := make([]MachineID, ns)
	for s := 0; s < ns; s++ {
		c.Shards = append(c.Shards, Shard{
			ID:     ShardID(s),
			Static: vec.New(r.Float64()*10, r.Float64()*10, r.Float64()*10),
			Load:   r.Float64() * 5,
		})
		assign[s] = MachineID(r.Intn(nm))
	}
	p, err := FromAssignment(c, assign)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkMove(b *testing.B) {
	p := benchPlacement(b)
	r := rand.New(rand.NewSource(2))
	nm := p.Cluster().NumMachines()
	ns := p.Cluster().NumShards()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Move(ShardID(r.Intn(ns)), MachineID(r.Intn(nm)))
	}
}

func BenchmarkCanPlace(b *testing.B) {
	p := benchPlacement(b)
	r := rand.New(rand.NewSource(3))
	nm := p.Cluster().NumMachines()
	ns := p.Cluster().NumShards()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.CanPlace(ShardID(r.Intn(ns)), MachineID(r.Intn(nm)))
	}
}

func BenchmarkClone(b *testing.B) {
	p := benchPlacement(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Clone()
	}
}
