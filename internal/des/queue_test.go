package des

import (
	"testing"

	"rexchange/internal/ctl"
)

// TestMachineRingNoAlloc certifies the machine ring's read and dequeue
// path stays off the garbage collector, matching the //rexlint:noalloc
// annotations on front, pop, depth, oldestRef and effectiveSpeed: the ring
// and the copy list are grown first, then every call is measured.
func TestMachineRingNoAlloc(t *testing.T) {
	var m machine
	m.speed = 2
	for i := 0; i < 1024; i++ {
		m.push(leg{q: int32(i), work: float64(i)})
	}
	m.addRef(ctl.MoveRef{Round: 1, Seq: 1})
	var work, speed float64
	var depth int
	allocs := testing.AllocsPerRun(512, func() {
		work += m.front().work
		work += m.pop().work
		depth += m.depth()
		if ref, ok := m.oldestRef(); ok {
			depth += ref.Seq
		}
		speed += m.effectiveSpeed(0.3)
	})
	if allocs != 0 {
		t.Fatalf("front+pop+depth+oldestRef+effectiveSpeed allocate %.1f per call, want 0", allocs)
	}
	// AllocsPerRun calls the function once more to warm up.
	if m.depth() != 1024-513 || work == 0 || speed == 0 || depth == 0 {
		t.Fatalf("depth %d after 513 pops (sums %g, %g, %d)", m.depth(), work, speed, depth)
	}
}
