// Fixture for the clockpurity analyzer: direct wall-clock reads and
// stored-then-called time functions are flagged; Clock implementations
// and code that merely handles time values are not.
package clockpurity

import "time"

// Clock is the injection seam for time in this fixture, mirroring
// ctl.Clock.
type Clock interface {
	Now() float64
	Sleep(d float64)
}

// WallClock is the one legitimate wall-time sink: it implements Clock.
type WallClock struct{}

func (WallClock) Now() float64 {
	return float64(time.Now().UnixNano()) // exempt: Clock implementation
}

func (WallClock) Sleep(d float64) {
	time.Sleep(time.Duration(d)) // exempt: Clock implementation
}

// NewWallClock is exempt through its result type.
func NewWallClock() Clock {
	_ = time.Now()
	return WallClock{}
}

func bad() int64 {
	return time.Now().UnixNano()
}

func badSleep() {
	time.Sleep(time.Millisecond)
}

func badStored() int64 {
	now := time.Now
	return now().UnixNano()
}

// badBranch may still hold time.Now on the fall-through path.
func badBranch(b bool) time.Time {
	f := time.Now
	if b {
		f = func() time.Time { return time.Time{} }
	}
	return f()
}

// okReassigned overwrites the stored clock on every path before calling.
func okReassigned() time.Time {
	now := time.Now
	now = func() time.Time { return time.Time{} }
	return now()
}

// okHandlesTime manipulates time values without reading the ambient
// clock.
func okHandlesTime(d time.Duration, t time.Time) time.Time {
	return t.Add(d * 2)
}

// okClockUse reads time through the seam.
func okClockUse(c Clock) float64 {
	return c.Now()
}

// sampler mirrors the des/obs trace sampler shape: it timestamps spans
// and must do so through the injected clock, never the ambient one —
// otherwise trace emission would perturb a deterministic simulation.
type sampler struct{ clock Clock }

func (s *sampler) okSpanStart() float64 {
	return s.clock.Now()
}

func (s *sampler) badSpanStart() int64 {
	return time.Now().UnixNano()
}

// badSamplerHelper hides the ambient read one call deep; the
// interprocedural pass flags the call site.
func badSamplerHelper() int64 {
	return bad()
}

// badInRange reads the wall clock in a range body: one finding at the call,
// none at the loop head.
func badInRange(xs []int) int64 {
	var sum int64
	for range xs {
		sum += time.Now().UnixNano()
	}
	return sum
}

// badCaseInRange reads the wall clock in a switch case expression inside a
// range body: the case expression is a node of the switch's dispatch block.
func badCaseInRange(xs []int, t0 time.Time, d time.Duration) int {
	n := 0
	for range xs {
		switch {
		case time.Since(t0) > d:
			n++
		}
	}
	return n
}
