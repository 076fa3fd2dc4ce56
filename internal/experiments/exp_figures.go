package experiments

import (
	"fmt"
	"time"

	"rexchange/internal/baseline"
	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/ctl"
	"rexchange/internal/plan"
)

// F1ExchangeSweep sweeps the number of borrowed exchange machines K in the
// stringent regime (95% fill). Two effects are measured: final balance,
// and — the paper's core claim — the executability and cost of the
// migration itself. Without exchange machines the planner must stage and
// displace heavily through whatever slack exists (or fail outright when
// displacement is forbidden); borrowed vacancy collapses that overhead.
func F1ExchangeSweep(sc Scale) (*Table, error) {
	tbl := &Table{
		ID:      "F1",
		Title:   "Balance and migration overhead vs exchange machines K",
		Columns: []string{"K", "method", "maxU", "moves", "staged", "displaced", "mig-sec", "fallbacks"},
	}
	p, err := genInstance(sc.sel(16, 80), sc.sel(200, 1200), 0.95, 401)
	if err != nil {
		return nil, err
	}
	before := p.Report()
	tbl.AddRow("-", "initial", before.MaxUtil, 0, 0, 0, 0, 0)

	ls := baseline.LocalSearch(p, baseline.Config{AllowSwaps: true})
	tbl.AddRow("-", "local-search", ls.After.MaxUtil, ls.MovedShards, 0, 0, migSeconds(p, ls.Plan), 0)

	ks := []int{0, 1, 2, 4, 6, 8}
	ks = ks[:sc.sel(3, len(ks))]
	iters := sc.sel(300, 3000)
	for _, k := range ks {
		pk, err := cluster.BorrowExchange(p, k)
		if err != nil {
			return nil, err
		}
		res, err := core.New(solverConfig(iters, 11)).Solve(pk)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(k, "sra", res.After.MaxUtil, res.MovedShards,
			res.Plan.Staged, res.Plan.Displaced, migSeconds(pk, res.Plan), res.PlanFallbacks)
	}
	return tbl, nil
}

// migSeconds executes the plan offline at the default bandwidth with 4
// parallel streams and returns its makespan.
func migSeconds(from *cluster.Placement, p *plan.Plan) float64 {
	_, makespan, err := ctl.ExecutePlan(from, p, ctl.MigrationConfig{Bandwidth: 100, Concurrency: 4})
	if err != nil {
		return -1 // signal an unexecutable schedule in the table
	}
	return makespan
}

// F2TightnessSweep plots every method's achieved imbalance against cluster
// fill — the stringency of the transient-resource environment. The SRA
// advantage should widen as fill rises.
func F2TightnessSweep(sc Scale) (*Table, error) {
	tbl := &Table{
		ID:      "F2",
		Title:   "Imbalance vs cluster fill (transient tightness)",
		Columns: []string{"fill", "method", "maxU-before", "maxU-after", "imbalance"},
	}
	fills := []float64{0.60, 0.70, 0.80, 0.85, 0.90, 0.93, 0.95}
	fills = fills[:sc.sel(3, len(fills))]
	machines := sc.sel(16, 80)
	shards := sc.sel(200, 1200)
	iters := sc.sel(300, 3000)
	k := 2
	for fi, fill := range fills {
		p, err := genInstance(machines, shards, fill, int64(500+fi))
		if err != nil {
			return nil, err
		}
		before := p.Report()

		g := baseline.Greedy(p, baseline.Config{})
		tbl.AddRow(fill, "greedy", before.MaxUtil, g.After.MaxUtil, g.After.Imbalance)

		ls := baseline.LocalSearch(p, baseline.Config{AllowSwaps: true})
		tbl.AddRow(fill, "local-search", before.MaxUtil, ls.After.MaxUtil, ls.After.Imbalance)

		pk, err := cluster.BorrowExchange(p, k)
		if err != nil {
			return nil, err
		}
		res, err := core.New(solverConfig(iters, 13)).Solve(pk)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fill, fmt.Sprintf("sra-k%d", k), before.MaxUtil, res.After.MaxUtil, res.After.Imbalance)
	}
	return tbl, nil
}

// F3Scalability measures SRA wall-clock time as the fleet grows at a fixed
// iteration budget.
func F3Scalability(sc Scale) (*Table, error) {
	tbl := &Table{
		ID:      "F3",
		Title:   "SRA runtime vs cluster size",
		Columns: []string{"machines", "shards", "iterations", "seconds", "maxU-before", "maxU-after"},
	}
	type size struct{ m, s int }
	sizes := []size{{50, 750}, {100, 1500}, {200, 3000}, {400, 6000}, {800, 12000}}
	sizes = sizes[:sc.sel(2, len(sizes))]
	iters := sc.sel(150, 1500)
	for i, sz := range sizes {
		p0, err := genInstance(sz.m, sz.s, 0.82, int64(600+i))
		if err != nil {
			return nil, err
		}
		p, err := cluster.BorrowExchange(p0, 4)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := core.New(solverConfig(iters, 17)).Solve(p)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		tbl.AddRow(sz.m, sz.s, iters, elapsed, res.Before.MaxUtil, res.After.MaxUtil)
	}
	return tbl, nil
}

// F4Convergence records the best-objective trajectory of one LNS run at
// logarithmic checkpoints.
func F4Convergence(sc Scale) (*Table, error) {
	tbl := &Table{
		ID:      "F4",
		Title:   "LNS convergence (best objective vs iteration)",
		Columns: []string{"iteration", "best-objective", "vs-initial"},
	}
	p0, err := genInstance(sc.sel(20, 80), sc.sel(240, 1200), 0.85, 701)
	if err != nil {
		return nil, err
	}
	p, err := cluster.BorrowExchange(p0, 3)
	if err != nil {
		return nil, err
	}
	cfg := solverConfig(sc.sel(400, 4000), 19)
	cfg.KeepTrajectory = true
	res, err := core.New(cfg).Solve(p)
	if err != nil {
		return nil, err
	}
	initial := res.Trajectory[0]
	for _, it := range []int{1, 2, 5, 10, 20, 50, 100, 200, 400, 800, 1600, 3200} {
		if it > len(res.Trajectory) {
			break
		}
		v := res.Trajectory[it-1]
		tbl.AddRow(it, v, fmt.Sprintf("%.1f%%", 100*v/initial))
	}
	tbl.AddRow(len(res.Trajectory), res.Trajectory[len(res.Trajectory)-1],
		fmt.Sprintf("%.1f%%", 100*res.Trajectory[len(res.Trajectory)-1]/initial))
	return tbl, nil
}
