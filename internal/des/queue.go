package des

import (
	"fmt"

	"rexchange/internal/cluster"
	"rexchange/internal/ctl"
)

// leg is one unit of query work routed to a machine: the owning query and
// the work to serve, in cluster Load units (speed-seconds). tr is nil on
// every unsampled leg — the hot path carries one extra pointer-sized
// field and allocates nothing.
type leg struct {
	q    int32
	work float64
	tr   *legTrace
}

// machine is the simulator's per-machine serving state: a FIFO ring of
// legs and the current service-rate modifiers. The ring grows on demand
// and is reused across the whole run, so steady-state enqueue/dequeue
// never allocates.
type machine struct {
	speed float64 // cluster serving speed (Load units per second)

	// busy is the service time of every leg started so far; busyUntil is
	// when the most recently started one ends.
	busy      float64
	busyUntil float64

	// refs identifies the outbound migration copies currently streaming,
	// oldest first; effectiveSpeed degrades once per entry. Blame
	// attribution charges a delayed leg to the oldest active copy: it has
	// degraded the machine longest over the leg's lifetime. Kept in
	// arrival order by append/remove, both on the single-goroutine
	// observer path.
	refs []ctl.MoveRef

	ring []leg // power-of-two capacity circular buffer
	head int
	n    int //rexlint:nonneg
}

// addRef records an outbound copy's identity.
func (m *machine) addRef(ref ctl.MoveRef) { m.refs = append(m.refs, ref) }

// dropRef removes the finished copy's identity, preserving order.
func (m *machine) dropRef(ref ctl.MoveRef) {
	for i, r := range m.refs {
		if r == ref {
			m.refs = append(m.refs[:i], m.refs[i+1:]...)
			return
		}
	}
}

// oldestRef returns the longest-active copy on the machine; ok is false
// when none is streaming.
//
//rexlint:noalloc
func (m *machine) oldestRef() (ctl.MoveRef, bool) {
	if len(m.refs) == 0 {
		return ctl.MoveRef{}, false
	}
	return m.refs[0], true
}

// depth returns the number of legs queued or running on the machine.
//
//rexlint:noalloc
func (m *machine) depth() int { return m.n }

// push appends a leg at the tail of the queue, growing the ring if full.
func (m *machine) push(l leg) {
	if m.n == len(m.ring) {
		m.grow()
	}
	m.ring[(m.head+m.n)&(len(m.ring)-1)] = l
	m.n++
}

// grow doubles the ring, rebasing the live window to index 0.
func (m *machine) grow() {
	size := len(m.ring) * 2
	if size == 0 {
		size = 8
	}
	next := make([]leg, size)
	for i := 0; i < m.n; i++ {
		next[i] = m.ring[(m.head+i)&(len(m.ring)-1)]
	}
	m.ring = next
	m.head = 0
}

// front returns the head leg. The queue must be non-empty.
//
//rexlint:noalloc
func (m *machine) front() *leg { return &m.ring[m.head] }

// pop removes the head leg. The queue must be non-empty.
//
//rexlint:noalloc
func (m *machine) pop() leg {
	l := m.ring[m.head]
	m.head = (m.head + 1) & (len(m.ring) - 1)
	//rexlint:ignore nonneg pop's one caller is legDoneEvent, and the event heap holds one KindLegDone per startService, so the machine is non-empty
	m.n--
	if cluster.DebugAsserts {
		assertNonneg("machine.n", m.n)
	}
	return l
}

// assertNonneg is the runtime twin of a //rexlint:nonneg field, called
// after a decrement under cluster.DebugAsserts: it panics with the field's
// name when the count went below zero.
func assertNonneg(field string, v int) {
	if v < 0 {
		panic(fmt.Sprintf("des: %s went negative (%d)", field, v))
	}
}

// effectiveSpeed is the service rate with migration degradation applied:
// every copy streaming off the machine multiplies its speed by (1-drag),
// modelling the sequential-read and network pressure of an index transfer
// sharing the box with query serving.
//
//rexlint:noalloc
func (m *machine) effectiveSpeed(drag float64) float64 {
	s := m.speed
	for range m.refs {
		s *= 1 - drag
	}
	return s
}
