package sim

import (
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
	"rexchange/internal/workload"
)

// mkPlacement builds a 2-machine cluster with the given per-machine loads
// realized as one shard each.
func mkPlacement(t *testing.T, loads []float64) *cluster.Placement {
	t.Helper()
	c := &cluster.Cluster{}
	for m := range loads {
		c.Machines = append(c.Machines, cluster.Machine{
			ID: cluster.MachineID(m), Capacity: vec.Uniform(100), Speed: 1,
		})
	}
	assign := make([]cluster.MachineID, len(loads))
	for i, l := range loads {
		c.Shards = append(c.Shards, cluster.Shard{
			ID: cluster.ShardID(i), Static: vec.Uniform(1), Load: l,
		})
		assign[i] = cluster.MachineID(i)
	}
	p, err := cluster.FromAssignment(c, assign)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mkTrace(t *testing.T, rate, duration float64) *workload.Trace {
	t.Helper()
	tr, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: duration, BaseRate: rate, CostMu: 0, CostSigma: 0.2, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunBasic(t *testing.T) {
	p := mkPlacement(t, []float64{10, 10})
	tr := mkTrace(t, 50, 20)
	rep, err := Run(p, tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != len(tr.Queries) {
		t.Errorf("Queries = %d", rep.Queries)
	}
	if !(rep.MeanLatency > 0) || !(rep.P99 >= rep.P50) || !(rep.MaxLatency >= rep.P99) {
		t.Errorf("latency ordering broken: %+v", rep)
	}
	if rep.MaxBusy <= 0 || rep.MaxBusy > 1.5 {
		t.Errorf("MaxBusy = %v", rep.MaxBusy)
	}
}

func TestImbalanceRaisesTailLatency(t *testing.T) {
	// Same total load, balanced vs concentrated. Scale the work so the
	// hot machine is near saturation — its queue should explode p99.
	balanced := mkPlacement(t, []float64{10, 10})
	skewed := mkPlacement(t, []float64{19, 1})
	tr := mkTrace(t, 40, 30)
	cfg := Config{Cores: 2, WorkScale: 4e-3} // hot machine: 19·0.004·40/2 ≈ 1.5 ρ

	repB, err := Run(balanced, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repS, err := Run(skewed, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if repS.P99 <= repB.P99 {
		t.Errorf("skewed p99 (%v) should exceed balanced p99 (%v)", repS.P99, repB.P99)
	}
	if repS.MaxBusy <= repB.MaxBusy {
		t.Errorf("skewed MaxBusy (%v) should exceed balanced (%v)", repS.MaxBusy, repB.MaxBusy)
	}
}

func TestSLAMissAccounting(t *testing.T) {
	p := mkPlacement(t, []float64{10, 10})
	tr := mkTrace(t, 50, 20)
	cfg := DefaultConfig()
	// SLA disabled → zero
	rep, err := Run(p, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLAMissFrac != 0 {
		t.Errorf("SLA disabled but miss frac = %v", rep.SLAMissFrac)
	}
	// Generous SLA → 0 misses; impossible SLA → all miss.
	cfg.SLA = rep.MaxLatency * 2
	rep2, err := Run(p, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SLAMissFrac != 0 {
		t.Errorf("generous SLA missed %v", rep2.SLAMissFrac)
	}
	cfg.SLA = 1e-12
	rep3, err := Run(p, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.SLAMissFrac != 1 {
		t.Errorf("impossible SLA missed only %v", rep3.SLAMissFrac)
	}
	// p50-level SLA → roughly half miss
	cfg.SLA = rep.P50
	rep4, err := Run(p, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep4.SLAMissFrac < 0.3 || rep4.SLAMissFrac > 0.7 {
		t.Errorf("p50 SLA miss frac = %v, want ≈0.5", rep4.SLAMissFrac)
	}
}

func TestVacantMachinesExcluded(t *testing.T) {
	c := &cluster.Cluster{
		Machines: []cluster.Machine{
			{ID: 0, Capacity: vec.Uniform(10), Speed: 1},
			{ID: 1, Capacity: vec.Uniform(10), Speed: 1},
		},
		Shards: []cluster.Shard{{ID: 0, Static: vec.Uniform(1), Load: 5}},
	}
	p, _ := cluster.FromAssignment(c, []cluster.MachineID{0})
	rep, err := Run(p, mkTrace(t, 20, 5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MachineBusy[1] != 0 {
		t.Error("vacant machine accrued busy time")
	}
}

func TestRunValidation(t *testing.T) {
	p := mkPlacement(t, []float64{1})
	tr := mkTrace(t, 10, 2)
	if _, err := Run(p, tr, Config{Cores: 0, WorkScale: 1}); err == nil {
		t.Error("expected cores error")
	}
	if _, err := Run(p, tr, Config{Cores: 1, WorkScale: 0}); err == nil {
		t.Error("expected workscale error")
	}
	if _, err := Run(p, &workload.Trace{}, DefaultConfig()); err == nil {
		t.Error("expected empty-trace error")
	}
	empty := cluster.NewPlacement(&cluster.Cluster{
		Machines: []cluster.Machine{{ID: 0, Capacity: vec.Uniform(1), Speed: 1}},
	})
	if _, err := Run(empty, tr, DefaultConfig()); err == nil {
		t.Error("expected no-serving-machines error")
	}
}
