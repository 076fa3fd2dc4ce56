package core

import (
	"fmt"
	"runtime"
	"sync"

	"rexchange/internal/cluster"
	"rexchange/internal/rng"
)

// DefaultRestarts is the portfolio width used when SolveParallel is called
// with restarts <= 0. It is a pinned constant — never derived from
// GOMAXPROCS or any other machine property — so that a defaulted portfolio
// runs the same set of searches on every host. (The pre-fix behaviour
// defaulted to GOMAXPROCS, which silently violated the documented
// determinism contract: a 1-core box would even collapse to a single
// undetected restart via the restarts == 1 shortcut.)
const DefaultRestarts = 4

// SolveParallel runs `restarts` independent LNS searches concurrently —
// same configuration, decorrelated seeds — and returns the best result by
// solver objective. LNS is embarrassingly parallel across restarts and the
// placement state is cloned per worker, so speedup is near-linear until
// memory bandwidth binds. The input placement is shared read-only and
// never modified. restarts <= 0 selects the pinned DefaultRestarts.
//
// Determinism: for a fixed (Config.Seed, restarts) the set of searches and
// the returned result are reproducible regardless of scheduling — and of
// GOMAXPROCS, including on the defaulted path — because selection uses the
// objective with the restart index as tie-breaker.
//
// Individual restart failures do not abort the portfolio: the best
// successful result is returned with Result.FailedRestarts counting the
// losses, and an error is returned only when every restart failed.
func (sv *Solver) SolveParallel(p *cluster.Placement, restarts int) (*Result, error) {
	if restarts <= 0 {
		restarts = DefaultRestarts
	}
	if restarts == 1 {
		return sv.Solve(p)
	}

	outcomes := make([]outcome, restarts)
	// Workers read p only; Solve clones before mutating (newState).
	fanOut(restarts, func(i int) {
		cfg := sv.cfg
		cfg.Seed = rng.WorkerSeed(sv.cfg.Seed, i)
		res, err := New(cfg).Solve(p)
		outcomes[i] = outcome{res, err}
	})
	return reduceOutcomes(outcomes)
}

// fanOut runs work(0) … work(n-1) on one goroutine each and returns when
// all have finished, with at most GOMAXPROCS of them running at a time:
// every worker clones or owns a placement, and more parallelism than cores
// only adds memory pressure. GOMAXPROCS is a throughput cap only — it must
// never influence which searches run or which results win. sharecheck does
// not follow a placement that work captures onto these goroutines, so the
// single-owner rule is the caller's to keep: a captured placement is read
// only, or owned by exactly one index.
func fanOut(n int, work func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			work(i)
		}(i)
	}
	wg.Wait()
}

// outcome is one restart's result in the portfolio.
type outcome struct {
	res *Result
	err error
}

// Seed derivation lives in internal/rng: rng.WorkerSeed keeps restart 0 on
// the base seed (the portfolio always contains the plain single run) and
// splitmix64-decorrelates the rest; rng.CellSeed extends the construction
// to the partitioned solver's (round, partition) grid. The
// pairwise-distinctness regression tests (including the historical
// stride-collision shape) moved to internal/rng with the helpers.

// reduceOutcomes selects the best successful restart by objective (ties
// resolved by restart index, never completion order, preserving the
// determinism contract). Partially failed portfolios are not silent: the
// number of failed restarts is recorded in the winner's FailedRestarts so
// callers can detect a degraded portfolio. Only when every restart fails
// does the reduction return an error (wrapping the first, by index).
func reduceOutcomes(outcomes []outcome) (*Result, error) {
	var best *Result
	var firstErr error
	failed := 0
	for i := range outcomes {
		o := outcomes[i]
		if o.err != nil {
			failed++
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		if best == nil || o.res.Objective < best.Objective {
			best = o.res
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: all %d restarts failed: %w", len(outcomes), firstErr)
	}
	best.FailedRestarts = failed
	return best, nil
}
