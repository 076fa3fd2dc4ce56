// Package ctl is the online rebalancing control plane: a long-running
// controller that watches cluster load drift (replayed from a query trace or
// fed by any LoadSource), decides when a re-solve is worth its churn via a
// hysteresis trigger, runs the SRA solver under a per-round budget, and
// drives the resulting move schedule with an asynchronous migration
// executor that enforces the paper's transient resource constraint at
// dispatch time against the *live* placement.
//
// The whole subsystem runs on an injected Clock: a deterministic virtual
// clock for tests and CI (no sleeps, bit-identical round trajectories
// across GOMAXPROCS) and the wall clock in production. cmd/rexd is the
// binary wrapper; the HTTP surface in http.go exposes controller state,
// the live placement, the current plan, and Prometheus metrics.
package ctl

import (
	"sync"
	"time"
)

// Clock abstracts time for the controller and executor. All timestamps are
// float64 seconds since the controller started, matching the units used by
// workload traces and the migration simulator.
//
// Implementations must be safe for concurrent Now calls (HTTP handlers read
// the clock while the control loop advances it); Sleep is only ever called
// by the single control-loop goroutine.
type Clock interface {
	// Now returns the current time in seconds since start.
	Now() float64
	// Sleep blocks until d seconds have passed. Non-positive d returns
	// immediately.
	Sleep(d float64)
}

// SleepTo adapts clock to Executor.Drive's advance parameter: sleep until
// t, report the time reached.
func SleepTo(clock Clock) func(t float64) float64 {
	return func(t float64) float64 {
		clock.Sleep(t - clock.Now())
		return clock.Now()
	}
}

// VirtualClock is a deterministic simulated clock: Sleep advances time
// instantly. It makes the control loop fully reproducible and lets tests
// cover hours of simulated operation in milliseconds.
type VirtualClock struct {
	mu  sync.Mutex
	now float64 // guarded by: mu
}

// NewVirtualClock returns a virtual clock at t=0.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now returns the current virtual time.
func (c *VirtualClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the virtual time by d seconds without blocking.
func (c *VirtualClock) Sleep(d float64) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// WallClock is the production clock: real time elapsed since construction.
type WallClock struct {
	start time.Time
}

// NewWallClock returns a wall clock starting now.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now returns seconds elapsed since the clock was created.
func (c *WallClock) Now() float64 { return time.Since(c.start).Seconds() }

// Sleep blocks for d seconds of real time.
func (c *WallClock) Sleep(d float64) {
	if d <= 0 {
		return
	}
	time.Sleep(time.Duration(d * float64(time.Second)))
}
