package experiments

import (
	"rexchange/internal/cluster"
	"rexchange/internal/core"
)

// F6OperatorAblation compares SRA variants with parts of the algorithm
// disabled, quantifying each design choice's contribution (DESIGN.md §6).
func F6OperatorAblation(sc Scale) (*Table, error) {
	tbl := &Table{
		ID:      "F6",
		Title:   "Operator & acceptance ablation",
		Columns: []string{"variant", "maxU", "imbalance", "moves", "accepted", "repair-fails"},
	}
	p0, err := genInstance(sc.sel(20, 80), sc.sel(240, 1200), 0.87, 901)
	if err != nil {
		return nil, err
	}
	p, err := cluster.BorrowExchange(p0, 3)
	if err != nil {
		return nil, err
	}
	before := p.Report()
	tbl.AddRow("initial", before.MaxUtil, before.Imbalance, 0, 0, 0)

	all := core.AllOperators()
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"full", func(*core.Config) {}},
		{"no-related", func(c *core.Config) { c.Operators.RelatedRemove = false }},
		{"no-worst", func(c *core.Config) { c.Operators.WorstRemove = false }},
		{"no-drain", func(c *core.Config) { c.Operators.DrainRemove = false }},
		{"random+greedy-only", func(c *core.Config) {
			c.Operators = core.OperatorSet{RandomRemove: true, GreedyRepair: true}
		}},
		{"no-regret", func(c *core.Config) { c.Operators.RegretRepair = false }},
		{"no-greedy", func(c *core.Config) { c.Operators.GreedyRepair = false }},
		{"hill-climb", func(c *core.Config) { c.HillClimb = true }},
		{"non-adaptive", func(c *core.Config) { c.Adaptive = false }},
	}
	iters := sc.sel(250, 2500)
	for _, v := range variants {
		cfg := solverConfig(iters, 31)
		cfg.Operators = all
		v.mutate(&cfg)
		res, err := core.New(cfg).Solve(p)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(v.name, res.After.MaxUtil, res.After.Imbalance,
			res.MovedShards, res.Accepted, res.RepairFailures)
	}
	return tbl, nil
}

// experiment is one entry of the evaluation: its ID and its driver.
type experiment struct {
	id  string
	run func(Scale) (*Table, error)
}

// registry lists every experiment in the order All runs them; ByID and
// IDs read the same table.
var registry = []experiment{
	{"T1", T1OptimalityGap},
	{"T2", T2EndToEnd},
	{"T3", T3PlanFeasibility},
	{"T4", T4Replicated},
	{"F1", F1ExchangeSweep},
	{"F2", F2TightnessSweep},
	{"F3", F3Scalability},
	{"F4", F4Convergence},
	{"F5", F5LatencySim},
	{"F6", F6OperatorAblation},
	{"F7", F7ContinuousRebalance},
	{"F8", F8ReplicaRouting},
}

// All runs every experiment in order, returning the tables. It is the
// driver behind cmd/srabench.
func All(sc Scale) ([]*Table, error) {
	var out []*Table
	for _, e := range registry {
		t, err := e.run(sc)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ByID returns the driver for one experiment ID, or nil.
func ByID(id string) func(Scale) (*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run
		}
	}
	return nil
}

// IDs lists the experiment IDs in the order All runs them.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}
