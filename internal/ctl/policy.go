package ctl

import (
	"fmt"
	"math"
)

// Policy decides when the controller re-solves. It implements hysteresis,
// consulted once per control window — the window pacing is what
// rate-limits solves:
//
//   - a *campaign* starts when observed imbalance reaches HighWater;
//   - while a campaign is active the controller keeps re-solving (once the
//     previous plan has drained) until imbalance falls to LowWater, where
//     the campaign ends — the dead band between the marks prevents churn
//     around a single threshold;
//   - an in-flight plan is superseded (cancelled and re-solved) only when
//     imbalance climbs back above HighWater, never for mid-band drift.
type Policy struct {
	// HighWater triggers a re-solve (imbalance = MaxUtil/MeanUtil, 1.0 is
	// perfect balance).
	HighWater float64
	// LowWater ends an active rebalancing campaign. Must be ≥ 1 and below
	// HighWater.
	LowWater float64
}

// DefaultPolicy triggers at 25% over ideal and stops churning at 10% over.
func DefaultPolicy() Policy {
	return Policy{HighWater: 1.25, LowWater: 1.10}
}

// validate checks the watermark ordering. A NaN watermark is refused
// first: it compares false with everything, so it would pass the ordering
// checks and ShouldSolve would never fire.
func (p Policy) validate() error {
	if math.IsNaN(p.HighWater) {
		return fmt.Errorf("ctl: Policy.HighWater is NaN")
	}
	if math.IsNaN(p.LowWater) {
		return fmt.Errorf("ctl: Policy.LowWater is NaN")
	}
	if p.LowWater < 1 {
		return fmt.Errorf("ctl: LowWater must be ≥ 1, got %g", p.LowWater)
	}
	if p.HighWater < p.LowWater {
		return fmt.Errorf("ctl: HighWater %g below LowWater %g", p.HighWater, p.LowWater)
	}
	return nil
}

// ShouldSolve reports whether a solve should run this window. campaign is
// whether a rebalancing campaign is active, migrating whether a plan is
// still executing.
func (p Policy) ShouldSolve(imb float64, campaign, migrating bool) bool {
	if imb >= p.HighWater {
		return true
	}
	// Mid-band: never supersede a working plan, but keep an idle campaign
	// going until the low-water mark is reached.
	return campaign && !migrating && imb > p.LowWater
}

// Budget bounds one solve round, which is one core.SolvePartitioned call.
// The LNS iteration count is the paper's natural work unit (wall time per
// iteration is instance-dependent but stable). A fleet that solves as one
// partition multiplies it across cores with a portfolio of restarts; with
// Partitions > 1 the fleet is factored into resource-equivalence partitions
// solved concurrently on slices of the iteration budget, with
// ExchangeRounds cross-partition exchange phases in between.
type Budget struct {
	// Iterations is the LNS iteration budget per restart (or the global
	// budget split across partitions when Partitions > 1).
	Iterations int
	// Restarts is the portfolio width when the fleet solves as one
	// partition (best result wins); 0 means the pinned
	// core.DefaultRestarts — never GOMAXPROCS, so a defaulted budget runs
	// the same searches on every host.
	Restarts int
	// Partitions, when > 1, is the target partition count. 0 or 1 solves
	// the whole cluster as one partition.
	Partitions int
	// ExchangeRounds bounds the cross-partition exchange phases per solve
	// when Partitions > 1; 0 solves each partition once with no exchange.
	ExchangeRounds int
	// SolveSeconds is the modeled latency charged to the clock per solve
	// round. On the virtual clock it stands in for real solver runtime so
	// simulated schedules stay honest; on the wall clock real time passes
	// anyway and this should be left 0.
	SolveSeconds float64
}

// DefaultBudget returns a small per-round budget suitable for continuous
// operation: frequent cheap re-solves beat rare exhaustive ones when load
// keeps drifting.
func DefaultBudget() Budget {
	return Budget{Iterations: 600, Restarts: 2}
}

// validate checks the budget.
func (b Budget) validate() error {
	if b.Iterations <= 0 {
		return fmt.Errorf("ctl: Budget.Iterations must be positive, got %d", b.Iterations)
	}
	if b.Restarts < 0 {
		return fmt.Errorf("ctl: negative Budget.Restarts %d", b.Restarts)
	}
	if b.Partitions < 0 {
		return fmt.Errorf("ctl: negative Budget.Partitions %d", b.Partitions)
	}
	if b.ExchangeRounds < 0 {
		return fmt.Errorf("ctl: negative Budget.ExchangeRounds %d", b.ExchangeRounds)
	}
	// A NaN or infinite cost would hand the clock a target no event
	// reaches.
	if math.IsNaN(b.SolveSeconds) || math.IsInf(b.SolveSeconds, 0) {
		return fmt.Errorf("ctl: Budget.SolveSeconds must be finite, got %g", b.SolveSeconds)
	}
	if b.SolveSeconds < 0 {
		return fmt.Errorf("ctl: negative Budget.SolveSeconds %g", b.SolveSeconds)
	}
	return nil
}
