// Package des is the repository's serving physics: a deterministic
// discrete-event cluster simulator with per-query tail-latency
// accounting. It models a partition-by-document search fleet at query
// granularity: each query arrival fans out to the machines hosting a
// sample of shards (Config.Routing picks the replica of a grouped shard),
// waits in per-machine FIFO queues, is served at a rate set by the
// machine's speed (degraded while migration copies stream off it), and
// completes when its slowest leg merges.
//
// Offline — one placement, one trace, no controller — it is three calls:
//
//	sim, err := des.New(cfg, placement, trace)
//	sim.Sleep(trace.Duration)
//	lat, busy := sim.Report().All, sim.Busy()
//
// The simulator plugs into the online control plane unchanged: it
// implements ctl.Clock (the controller's Sleep advances the event heap),
// ctl.LoadSource (per-shard load observations are the work the simulator
// actually routed during the window), and ctl.MoveObserver (executor
// dispatches degrade the source machine mid-flight and commit reroutes).
// Everything is deterministic for a fixed seed: the event heap breaks
// timestamp ties by (kind, sequence number), all randomness flows through
// named rng.Partitioned sub-streams (workload, drift, chaos), and the
// single event loop runs on the control goroutine — so reports are
// byte-identical across runs and GOMAXPROCS values.
package des

// Kind discriminates event types. The numeric order is the documented
// tie-break order at equal timestamps: window boundaries fire before the
// arrivals they generated, and arrivals before any service completion at
// the same instant, so a queue observed by an arrival always reflects
// every completion due at that time.
type Kind uint8

// Event kinds, in tie-break order.
const (
	// KindWindow closes a measurement window, applies popularity drift,
	// and generates the next window's arrivals.
	KindWindow Kind = iota
	// KindArrival fans one query out to its shard legs.
	KindArrival
	// KindLegDone completes the leg at the head of machine M's queue.
	KindLegDone
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindWindow:
		return "window"
	case KindArrival:
		return "arrival"
	case KindLegDone:
		return "leg-done"
	default:
		return "kind(?)"
	}
}

// Event is one scheduled simulator event. Q indexes the simulator's query
// table for arrivals; M is the serving machine for leg completions. Seq is
// a global push counter that makes the heap order total: two events with
// equal (At, Kind) pop in push order.
type Event struct {
	At   float64
	Kind Kind
	Seq  uint64
	Q    int32
	M    int32
}

// before is the total heap order: time, then kind, then sequence.
func (e Event) before(o Event) bool {
	if e.At != o.At { //rexlint:ignore floateq exact-tie detection is the point: distinct floats order by time, bit-equal floats fall through to the kind/seq tie-break
		return e.At < o.At
	}
	if e.Kind != o.Kind {
		return e.Kind < o.Kind
	}
	return e.Seq < o.Seq
}

// eventHeap is a binary min-heap ordered by Event.before. It is a plain
// slice (no container/heap interface boxing): Push amortizes its growth
// and the pop path is provably allocation-free, which keeps the event
// loop — the simulator's innermost loop — off the garbage collector.
type eventHeap struct {
	ev  []Event
	seq uint64
}

// Len returns the number of pending events.
//
//rexlint:noalloc
func (h *eventHeap) Len() int { return len(h.ev) }

// Push schedules an event, stamping its sequence number.
func (h *eventHeap) Push(e Event) {
	e.Seq = h.seq
	h.seq++
	h.ev = append(h.ev, e)
	h.siftUp(len(h.ev) - 1)
}

// Min returns the earliest event without removing it. The heap must be
// non-empty.
//
//rexlint:noalloc
func (h *eventHeap) Min() Event { return h.ev[0] }

// Pop removes and returns the earliest event. The heap must be non-empty.
//
//rexlint:noalloc
func (h *eventHeap) Pop() Event {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev = h.ev[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

// siftUp restores the heap property from leaf i toward the root.
//
//rexlint:noalloc
func (h *eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.ev[i].before(h.ev[parent]) {
			return
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// siftDown restores the heap property from the root at i toward the
// leaves.
//
//rexlint:noalloc
func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.ev[right].before(h.ev[left]) {
			least = right
		}
		if !h.ev[least].before(h.ev[i]) {
			return
		}
		h.ev[i], h.ev[least] = h.ev[least], h.ev[i]
		i = least
	}
}
