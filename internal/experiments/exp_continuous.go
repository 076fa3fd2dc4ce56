package experiments

import (
	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/workload"
)

// F7ContinuousRebalance extends the evaluation to the operational loop the
// paper's system lives in: shard popularity drifts between rounds, and the
// operator periodically rebalances with a small borrowed pool. Two series
// are reported per round — letting imbalance accumulate ("static") versus
// rebalancing each round with SRA ("rebalanced") — plus the migration
// volume each round costs. Loads are exact and moves instant: the solver
// reads the drifted loads themselves, not a measurement of them, and its
// plan lands whole before the next round, with no copy in flight. The
// table is labelled so until a loop with measured loads and migration
// time replaces it.
func F7ContinuousRebalance(sc Scale) (*Table, error) {
	tbl := &Table{
		ID:      "F7",
		Title:   "Continuous rebalancing under load drift (exact loads, instant moves) — extension",
		Columns: []string{"round", "static-maxU", "rebal-maxU-before", "rebal-maxU-after", "moves", "disk-moved"},
	}
	p0, err := genInstance(sc.sel(16, 60), sc.sel(200, 900), 0.82, 1101)
	if err != nil {
		return nil, err
	}
	pk, err := cluster.BorrowExchange(p0, 2)
	if err != nil {
		return nil, err
	}
	iters := sc.sel(250, 1500)
	rounds := sc.sel(3, 6)
	driftSigma := 0.35

	staticCluster := pk.Cluster()
	staticAssign := pk.Assignment()
	rebalCluster := pk.Cluster()
	rebalAssign := pk.Assignment()

	for round := 1; round <= rounds; round++ {
		seed := int64(2000 + round)
		staticCluster = workload.PerturbLoads(staticCluster, driftSigma, seed)
		rebalCluster = workload.PerturbLoads(rebalCluster, driftSigma, seed)

		staticP, err := cluster.FromAssignment(staticCluster, staticAssign)
		if err != nil {
			return nil, err
		}
		rebalP, err := cluster.FromAssignment(rebalCluster, rebalAssign)
		if err != nil {
			return nil, err
		}

		cfg := solverConfig(iters, int64(round))
		res, err := core.New(cfg).Solve(rebalP)
		if err != nil {
			return nil, err
		}
		rebalAssign = res.Final.Assignment()

		tbl.AddRow(round,
			staticP.Report().MaxUtil,
			res.Before.MaxUtil,
			res.After.MaxUtil,
			res.Plan.NumMoves(),
			res.Plan.BytesMoved(rebalCluster),
		)
	}
	return tbl, nil
}
