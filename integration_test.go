// Integration tests: full pipelines across packages, as a downstream user
// would wire them — generate → borrow exchange machines → solve → plan →
// simulate → persist/reload.
package rexchange

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"rexchange/internal/baseline"
	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/ctl"
	"rexchange/internal/des"
	"rexchange/internal/invindex"
	"rexchange/internal/stats"
	"rexchange/internal/workload"
)

// TestEndToEndSyntheticPipeline runs the complete rebalancing pipeline on
// a generated instance and checks every cross-module contract.
func TestEndToEndSyntheticPipeline(t *testing.T) {
	gen := workload.DefaultConfig()
	gen.Machines = 24
	gen.Shards = 300
	gen.TargetFill = 0.85
	gen.Seed = 99
	inst, err := workload.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}

	// borrow 3 exchange machines
	c := inst.Cluster
	ec := c.WithExchange(3, c.TotalCapacity().Scale(1/float64(c.NumMachines())), 1)
	p, err := cluster.FromAssignment(ec, inst.Placement.Assignment())
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Iterations = 600
	res, err := core.New(cfg).Solve(p)
	if err != nil {
		t.Fatal(err)
	}

	// contract 1: balance improved
	if res.After.MaxUtil >= res.Before.MaxUtil {
		t.Errorf("no improvement: %.4f → %.4f", res.Before.MaxUtil, res.After.MaxUtil)
	}
	// contract 2: plan replays exactly onto the final placement
	got, err := res.Plan.Validate(p)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < ec.NumShards(); s++ {
		if got.Home(cluster.ShardID(s)) != res.Final.Home(cluster.ShardID(s)) {
			t.Fatalf("plan diverges at shard %d", s)
		}
	}
	// contract 3: compensation honored
	if len(res.Returned) != 3 {
		t.Fatalf("returned %d machines", len(res.Returned))
	}
	// contract 4: the schedule executes under the migration executor
	mig, _, err := ctl.ExecutePlan(p, res.Plan, ctl.MigrationConfig{
		Bandwidth: 100, Concurrency: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mig.Completed != res.Plan.NumMoves() {
		t.Errorf("migration executed %d of %d moves", mig.Completed, res.Plan.NumMoves())
	}
	// contract 5: serving simulation sees the better balance
	trace, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: 20, BaseRate: 50, CostSigma: 0.3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	simCfg := des.Config{TargetUtil: 0.9 / res.Before.Imbalance, CostSigma: 0.3, Seed: 7}
	var maxBusy [2]float64
	for i, pl := range []*cluster.Placement{p, res.Final} {
		sim, err := des.New(simCfg, pl, trace)
		if err != nil {
			t.Fatal(err)
		}
		sim.Sleep(trace.Duration)
		maxBusy[i] = stats.Max(sim.Busy())
	}
	if maxBusy[1] >= maxBusy[0] {
		t.Errorf("max busy did not drop: %.3f → %.3f", maxBusy[0], maxBusy[1])
	}
}

// TestPersistenceRoundTripPipeline saves a solved placement and reloads it
// into a second solve, as operators do between rebalancing rounds.
func TestPersistenceRoundTripPipeline(t *testing.T) {
	gen := workload.DefaultConfig()
	gen.Machines = 10
	gen.Shards = 100
	gen.Seed = 5
	inst, err := workload.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "placement.json")
	if err := inst.Placement.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := cluster.LoadPlacementFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a := inst.Placement.Report()
	b := loaded.Report()
	if math.Abs(a.MaxUtil-b.MaxUtil) > 1e-9 || a.Vacant != b.Vacant {
		t.Fatalf("metrics changed over round trip: %+v vs %+v", a, b)
	}
	cfg := core.DefaultConfig()
	cfg.Iterations = 200
	if _, err := core.New(cfg).Solve(loaded); err != nil {
		t.Fatal(err)
	}
}

// TestSearchToBalancePipeline goes from raw documents to a balanced
// cluster: index → profiles → placement → rebalance.
func TestSearchToBalancePipeline(t *testing.T) {
	docs, err := invindex.GenerateCorpus(invindex.CorpusConfig{
		Docs: 600, Vocab: 800, ZipfS: 1.2, MeanDocLen: 30, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	si, err := invindex.BuildSharded(docs, 24)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := invindex.GenerateQueries(invindex.QueryConfig{
		Queries: 60, Vocab: 800, ZipfS: 1.05, MaxTerms: 3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := si.ProfileShards(queries)
	if err != nil {
		t.Fatal(err)
	}
	p, err := invindex.ClusterFromProfiles(shards, 6, 0.75, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Iterations = 300
	res, err := core.New(cfg).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.After.MaxUtil > res.Before.MaxUtil {
		t.Error("profiled-cluster rebalance worsened balance")
	}
}

// TestBaselineAndSRAOnSameInstance checks the headline comparison holds on
// a tight instance with a generous SRA budget.
func TestBaselineAndSRAOnSameInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison needs a non-trivial solver budget")
	}
	gen := workload.DefaultConfig()
	gen.Machines = 30
	gen.Shards = 450
	gen.TargetFill = 0.9
	gen.Seed = 31
	inst, err := workload.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	ls := baseline.LocalSearch(inst.Placement, baseline.Config{AllowSwaps: true})

	c := inst.Cluster
	ec := c.WithExchange(2, c.TotalCapacity().Scale(1/float64(c.NumMachines())), 1)
	p, err := cluster.FromAssignment(ec, inst.Placement.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Iterations = 1500
	res, err := core.New(cfg).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.After.MaxUtil > ls.After.MaxUtil*1.02 {
		t.Errorf("SRA (%.4f) worse than local search (%.4f) on a tight instance",
			res.After.MaxUtil, ls.After.MaxUtil)
	}
}

// TestMain keeps the environment deterministic for the benches that read
// REXCHANGE_FULL.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
