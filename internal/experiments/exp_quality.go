package experiments

import (
	"errors"
	"fmt"

	"rexchange/internal/baseline"
	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/ip"
	"rexchange/internal/plan"
	"rexchange/internal/workload"
)

// T1OptimalityGap measures SRA's solution quality against the exact
// branch-and-bound optimum of the IP formulation on small instances.
func T1OptimalityGap(sc Scale) (*Table, error) {
	tbl := &Table{
		ID:      "T1",
		Title:   "SRA vs exact optimum (small instances)",
		Columns: []string{"inst", "machines", "shards", "K", "opt-maxU", "sra-maxU", "gap%", "bb-nodes", "bb-status"},
	}
	cases := []struct {
		m, s, k int
		seed    int64
	}{
		{4, 10, 1, 101},
		{4, 12, 1, 102},
		{5, 12, 1, 103},
		{5, 14, 2, 104},
		{6, 16, 2, 105},
	}
	cases = cases[:sc.sel(2, len(cases))]
	for i, cs := range cases {
		p0, err := genSmallHetero(cs.m, cs.s, cs.seed)
		if err != nil {
			return nil, err
		}
		p, err := cluster.BorrowExchange(p0, cs.k)
		if err != nil {
			return nil, err
		}
		res, err := core.New(solverConfig(sc.sel(300, 2000), 1)).Solve(p)
		if err != nil {
			return nil, err
		}
		md, err := ip.BuildModel(p.Cluster(), cs.k)
		if err != nil {
			return nil, err
		}
		// Prime branch-and-bound with the SRA makespan: if every node is
		// pruned below it, the SRA solution is certified optimal. The
		// combinatorial solver certifies these sizes in milliseconds; the
		// LP-relaxation solver (md.Solve) is its cross-checked reference.
		exact, err := md.SolveExact(ip.Options{
			MaxNodes:     sc.sel(2_000_000, 50_000_000),
			IncumbentObj: res.After.MaxUtil,
		})
		if err != nil {
			return nil, err
		}
		opt, gap, status := "n/a", "n/a", exact.Status.String()
		switch {
		case exact.Status == ip.Optimal:
			opt = fmt.Sprintf("%.4f", exact.Objective)
			if exact.Objective > 0 {
				gap = fmt.Sprintf("%.2f", 100*(res.After.MaxUtil-exact.Objective)/exact.Objective)
			}
		case exact.Status == ip.Infeasible && exact.Assignment == nil:
			// all nodes pruned by the incumbent: SRA is the optimum
			opt = fmt.Sprintf("%.4f", res.After.MaxUtil)
			gap = "0.00"
			status = "certified"
		default:
			// node-limited: bound the gap from the load/capacity bound
			if lb := exact.RootBound; lb > 0 {
				opt = fmt.Sprintf("≥%.4f", lb)
				gap = fmt.Sprintf("≤%.2f", 100*(res.After.MaxUtil-lb)/lb)
			}
		}
		tbl.AddRow(i+1, cs.m, cs.s, cs.k, opt, res.After.MaxUtil, gap, exact.Nodes, status)
	}
	return tbl, nil
}

// T2EndToEnd compares all methods end-to-end on a synthetic and a
// realistic instance: balance achieved, reassignment volume, and machines
// returned.
func T2EndToEnd(sc Scale) (*Table, error) {
	tbl := &Table{
		ID:      "T2",
		Title:   "End-to-end comparison (synthetic and realistic data)",
		Columns: []string{"dataset", "method", "maxU", "imbalance", "cv", "moves", "returned"},
	}
	type dataset struct {
		name string
		p    *cluster.Placement
	}
	syn, err := genInstance(sc.sel(20, 100), sc.sel(240, 1500), 0.80, 201)
	if err != nil {
		return nil, err
	}
	real_, err := genRealistic(sc.sel(24, 120), sc.sel(360, 2400), 202)
	if err != nil {
		return nil, err
	}
	k := sc.sel(2, 4)
	iters := sc.sel(800, 4000)
	for _, ds := range []dataset{{"synthetic", syn}, {"realistic", real_}} {
		before := ds.p.Report()
		tbl.AddRow(ds.name, "initial", before.MaxUtil, before.Imbalance, before.CV, 0, 0)

		g := baseline.Greedy(ds.p, baseline.Config{})
		tbl.AddRow(ds.name, "greedy", g.After.MaxUtil, g.After.Imbalance, g.After.CV, g.MovedShards, 0)

		ls := baseline.LocalSearch(ds.p, baseline.Config{AllowSwaps: true})
		tbl.AddRow(ds.name, "local-search", ls.After.MaxUtil, ls.After.Imbalance, ls.After.CV, ls.MovedShards, 0)

		s0, err := core.New(solverConfig(iters, 7)).Solve(ds.p)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(ds.name, "sra-k0", s0.After.MaxUtil, s0.After.Imbalance, s0.After.CV, s0.MovedShards, 0)

		pk, err := cluster.BorrowExchange(ds.p, k)
		if err != nil {
			return nil, err
		}
		sk, err := core.New(solverConfig(iters, 7)).Solve(pk)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(ds.name, fmt.Sprintf("sra-k%d", k),
			sk.After.MaxUtil, sk.After.Imbalance, sk.After.CV, sk.MovedShards, len(sk.Returned))
	}
	return tbl, nil
}

// T3PlanFeasibility measures how often an aggressive load-oblivious-to-
// balanced reassignment can be scheduled under the transient constraints,
// as a function of the borrowed exchange machines available for staging.
func T3PlanFeasibility(sc Scale) (*Table, error) {
	tbl := &Table{
		ID:      "T3",
		Title:   "Move-plan feasibility vs exchange machines",
		Columns: []string{"fill", "displace", "K", "planned", "trials", "avg-moves", "avg-staged", "avg-displaced"},
	}
	fills := []float64{0.80, 0.90, 0.94, 0.96}
	ks := []int{0, 1, 2, 4}
	trials := sc.sel(3, 10)
	machines := sc.sel(10, 40)
	shards := sc.sel(80, 480)
	// The displace=no rows model operators who forbid touching shards the
	// optimizer did not select: there the feasibility cliff without
	// exchange machines is sharp.
	for _, fill := range fills {
		for _, allowDisplace := range []bool{true, false} {
			for _, k := range ks {
				planner := plan.DefaultPlanner()
				planner.AllowDisplace = allowDisplace
				planned, moves, staged, displaced := 0, 0, 0, 0
				for trial := 0; trial < trials; trial++ {
					p0, err := genInstance(machines, shards, fill, int64(300+trial))
					if err != nil {
						return nil, err
					}
					p, err := cluster.BorrowExchange(p0, k)
					if err != nil {
						return nil, err
					}
					target, err := repackTarget(p, k)
					if err != nil {
						continue // statically impossible repack at this fill
					}
					pl, err := planner.Build(p, target)
					if err != nil {
						if errors.Is(err, plan.ErrInfeasible) {
							continue
						}
						return nil, err
					}
					planned++
					moves += pl.NumMoves()
					staged += pl.Staged
					displaced += pl.Displaced
				}
				row := []interface{}{fill, yesNo(allowDisplace), k, planned, trials, "n/a", "n/a", "n/a"}
				if planned > 0 {
					row[5] = float64(moves) / float64(planned)
					row[6] = float64(staged) / float64(planned)
					row[7] = float64(displaced) / float64(planned)
				}
				tbl.AddRow(row...)
			}
		}
	}
	return tbl, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// T4Replicated extends the evaluation to replicated fleets (the model of
// production engines and a natural extension of the paper's single-copy
// setting): every logical shard has R replicas under anti-affinity, each
// serving 1/R of its load. The exchange mechanism must preserve the
// anti-affinity invariant through every staged move.
func T4Replicated(sc Scale) (*Table, error) {
	tbl := &Table{
		ID:      "T4",
		Title:   "Replicated fleets (anti-affinity) — extension",
		Columns: []string{"replicas", "method", "maxU-before", "maxU-after", "moves", "affinity-ok"},
	}
	iters := sc.sel(300, 2500)
	for _, replicas := range []int{1, 2, 3} {
		cfg := workload.DefaultConfig()
		cfg.Machines = sc.sel(16, 60)
		cfg.Shards = sc.sel(80, 400) // logical shards
		cfg.Replicas = replicas
		cfg.TargetFill = 0.8
		cfg.Seed = int64(1000 + replicas)
		inst, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		p := inst.Placement
		before := p.Report()

		ls := baseline.LocalSearch(p, baseline.Config{AllowSwaps: true})
		tbl.AddRow(replicas, "local-search", before.MaxUtil, ls.After.MaxUtil,
			ls.MovedShards, yesNo(affinityOK(ls.Final)))

		pk, err := cluster.BorrowExchange(p, 2)
		if err != nil {
			return nil, err
		}
		res, err := core.New(solverConfig(iters, 41)).Solve(pk)
		if err != nil {
			return nil, err
		}
		ok := affinityOK(res.Final)
		// also verify every intermediate schedule state
		w := pk.Clone()
		for _, mv := range res.Plan.Moves {
			w.Move(mv.S, mv.To)
			if !affinityOK(w) {
				ok = false
				break
			}
		}
		tbl.AddRow(replicas, "sra-k2", before.MaxUtil, res.After.MaxUtil,
			res.MovedShards, yesNo(ok))
	}
	return tbl, nil
}

// affinityOK verifies no machine hosts two replicas of one group.
func affinityOK(p *cluster.Placement) bool {
	c := p.Cluster()
	for m := 0; m < c.NumMachines(); m++ {
		seen := map[int]bool{}
		conflict := false
		p.EachShardOn(cluster.MachineID(m), func(s cluster.ShardID) {
			g := c.Shards[s].Group
			if g == 0 {
				return
			}
			if seen[g] {
				conflict = true
			}
			seen[g] = true
		})
		if conflict {
			return false
		}
	}
	return true
}
