package des

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Event is one scheduled event of the reference heap. M is the serving
// machine for leg completions. Seq is a global push counter that makes
// the heap order total: two events with equal (At, Kind) pop in push
// order.
type Event struct {
	At   float64
	Kind Kind
	M    int32
	Seq  uint64
}

// before is the total heap order: time, then kind, then sequence.
func (e Event) before(o Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	if e.Kind != o.Kind {
		return e.Kind < o.Kind
	}
	return e.Seq < o.Seq
}

// eventHeap is a binary min-heap ordered by Event.before: the reference
// the calendar queue is held to. Pop is Floyd's: the hole at the root
// walks down to a leaf along the smaller child, then the former last
// element sifts up from there.
type eventHeap struct {
	ev  []Event
	seq uint64
}

// Len returns the number of pending events.
func (h *eventHeap) Len() int { return len(h.ev) }

// Push schedules an event, stamping its sequence number.
func (h *eventHeap) Push(e Event) {
	e.Seq = h.seq
	h.seq++
	h.ev = append(h.ev, e)
	h.siftUp(len(h.ev)-1, e)
}

// Min returns the earliest event without removing it. The heap must be
// non-empty.
func (h *eventHeap) Min() Event { return h.ev[0] }

// Pop removes and returns the earliest event. The heap must be non-empty.
func (h *eventHeap) Pop() Event {
	top := h.ev[0]
	last := len(h.ev) - 1
	x := h.ev[last]
	h.ev = h.ev[:last]
	if last == 0 {
		return top
	}
	i := 0
	for c := 1; c < last; c = 2*i + 1 {
		if c+1 < last && h.ev[c+1].before(h.ev[c]) {
			c++
		}
		h.ev[i] = h.ev[c]
		i = c
	}
	h.siftUp(i, x)
	return top
}

// siftUp places x at the hole i, moving the hole toward the root past
// every parent that x orders before.
func (h *eventHeap) siftUp(i int, x Event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(h.ev[parent]) {
			break
		}
		h.ev[i] = h.ev[parent]
		i = parent
	}
	h.ev[i] = x
}

// popAll drains the heap.
func popAll(h *eventHeap) []Event {
	out := make([]Event, 0, h.Len())
	for h.Len() > 0 {
		out = append(out, h.Pop())
	}
	return out
}

// checkSorted verifies the drained sequence respects the documented
// total order: time, then kind, then push sequence.
func checkSorted(t *testing.T, evs []Event) {
	t.Helper()
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if b.before(a) {
			t.Fatalf("pop %d out of order: %+v after %+v", i, b, a)
		}
		if a.At == b.At && a.Kind == b.Kind && a.Seq >= b.Seq {
			t.Fatalf("pop %d violates FIFO tie-break: seq %d then %d", i, a.Seq, b.Seq)
		}
	}
}

func TestEventHeapOrdersByTime(t *testing.T) {
	h := &eventHeap{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h.Push(Event{At: r.Float64() * 100, Kind: Kind(r.Intn(3))})
	}
	evs := popAll(h)
	if len(evs) != 1000 {
		t.Fatalf("drained %d events, want 1000", len(evs))
	}
	checkSorted(t, evs)
}

// TestEventHeapTieBreak pins the (time, kind, seq) order on a dense set
// of equal timestamps: window boundaries before arrivals before leg
// completions, push order within each kind.
func TestEventHeapTieBreak(t *testing.T) {
	h := &eventHeap{}
	h.Push(Event{At: 5, Kind: KindLegDone, M: 1})
	h.Push(Event{At: 5, Kind: KindArrival, M: 1})
	h.Push(Event{At: 5, Kind: KindWindow})
	h.Push(Event{At: 5, Kind: KindLegDone, M: 2})
	h.Push(Event{At: 5, Kind: KindArrival, M: 2})
	h.Push(Event{At: 4, Kind: KindLegDone, M: 9})

	want := []struct {
		at   float64
		kind Kind
		id   int32
	}{
		{4, KindLegDone, 9},
		{5, KindWindow, 0},
		{5, KindArrival, 1},
		{5, KindArrival, 2},
		{5, KindLegDone, 1},
		{5, KindLegDone, 2},
	}
	for i, w := range want {
		e := h.Pop()
		if e.At != w.at || e.Kind != w.kind || e.M != w.id {
			t.Fatalf("pop %d = %+v, want at=%g kind=%v id=%d", i, e, w.at, w.kind, w.id)
		}
	}
}

// TestEventHeapInterleavedPushPop mixes pushes and pops, mimicking the
// event loop scheduling completions while draining arrivals.
func TestEventHeapInterleavedPushPop(t *testing.T) {
	h := &eventHeap{}
	r := rand.New(rand.NewSource(7))
	last := -1.0
	for round := 0; round < 200; round++ {
		for i := 0; i < r.Intn(5); i++ {
			// Never schedule into the past relative to the last pop.
			h.Push(Event{At: last + r.Float64()*10, Kind: Kind(r.Intn(3))})
		}
		if h.Len() > 0 && r.Intn(2) == 0 {
			e := h.Pop()
			if e.At < last {
				t.Fatalf("popped %g after %g", e.At, last)
			}
			last = e.At
		}
	}
	evs := popAll(h)
	checkSorted(t, evs)
}

// FuzzEventHeapOrdering: any permutation of pushes — including dense
// equal-timestamp batches — pops in the documented (time, kind, seq)
// order.
func FuzzEventHeapOrdering(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(1))
	f.Add(int64(-9), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, distinct uint8) {
		r := rand.New(rand.NewSource(seed))
		// A small palette of timestamps forces equal-time collisions.
		n := int(distinct)%8 + 1
		times := make([]float64, n)
		for i := range times {
			times[i] = r.Float64() * 10
		}
		h := &eventHeap{}
		for i := 0; i < 300; i++ {
			h.Push(Event{At: times[r.Intn(n)], Kind: Kind(r.Intn(3))})
		}
		checkSorted(t, popAll(h))
	})
}

// queueRun counts what one run of runQueueOps exercised.
type queueRun struct {
	pops, bursts, far, rewinds int
	grows, shrinks, rewidths   int
}

// runQueueOps drives a calendar queue and the reference heap through the
// same pushes, pops and retunes, one op per byte, and fails at the first
// pop or minimum on which they differ. Every completion's machine is its
// push index, so equal sequences mean identical pop orders. Push times
// are drawn from r relative to the last popped time, on a scale that the
// retune op moves across six decades: near pushes, equal-time bursts,
// pushes a year or more ahead of the queue's minimum, and pushes that
// land below the scan position.
func runQueueOps(t testing.TB, r *rand.Rand, ops []byte) queueRun {
	t.Helper()
	var (
		q     legQueue
		h     eventHeap
		run   queueRun
		now   float64
		scale = 1.0
		id    int32
	)
	push := func(at float64) {
		if q.n > 0 && q.slot(at) < q.cur {
			run.rewinds++
		}
		q.Push(at, id)
		h.Push(Event{At: at, Kind: KindLegDone, M: id})
		id++
	}
	check := func() {
		want := math.Inf(1)
		if h.Len() > 0 {
			want = h.Min().At
		}
		if got := q.MinAt(); got != want {
			t.Fatalf("after %d pops: MinAt %g, heap minimum %g", run.pops, got, want)
		}
	}
	pop := func() {
		check()
		if h.Len() == 0 {
			return
		}
		e := h.Pop()
		at, m := q.Pop()
		if at != e.At || m != e.M {
			t.Fatalf("pop %d = (%g, m%d), heap pops (%g, m%d)", run.pops, at, m, e.At, e.M)
		}
		now = at
		run.pops++
	}
	for _, b := range ops {
		arg := int(b >> 3)
		switch b & 7 {
		case 0, 1, 2:
			push(now + r.ExpFloat64()*scale)
		case 3:
			at := now + r.ExpFloat64()*scale
			for i := 0; i < 2+arg%6; i++ {
				push(at)
			}
			run.bursts++
		case 4:
			if q.mask == 0 || q.n == 0 {
				push(now + scale)
				break
			}
			year := float64(len(q.buckets)) / q.inv
			push(q.MinAt() + year*float64(1+arg%4) + r.Float64()*year)
			run.far++
		case 5:
			// Rewinds: a time between the last pop and the minimum,
			// after MinAt has moved the scan position to the minimum.
			check()
			lo, hi := now, q.MinAt()
			if math.IsInf(hi, 1) {
				hi = now + scale
			}
			push(lo + (hi-lo)*r.Float64()*float64(arg%3)/2)
		case 6:
			for i := 0; i <= arg%4; i++ {
				pop()
			}
		case 7:
			scale = math.Pow(10, float64(arg%7)-4)
			nb, inv := len(q.buckets), q.inv
			q.retune(now)
			switch {
			case len(q.buckets) > nb && nb > 0:
				run.grows++
			case len(q.buckets) < nb:
				run.shrinks++
			}
			if nb > 0 && q.inv != inv {
				run.rewidths++
			}
		}
	}
	for h.Len() > 0 {
		pop()
	}
	check()
	return run
}

// TestEventQueueMatchesHeap holds the calendar queue to the reference
// heap: phases that fill the queue to thousands of items, drain it, and
// move the push-time scale, with retunes between, must pop the same
// (time, machine) sequence. The run must have grown, shrunk and re-widthed
// the calendar and rewound its scan position, or it proved nothing.
func TestEventQueueMatchesHeap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var ops []byte
	for phase := 0; phase < 24; phase++ {
		pushes, pops := 4, 1 // filling
		if phase%4 == 2 {
			pushes, pops = 1, 6 // draining
		}
		for i := 0; i < 1000; i++ {
			var b byte
			switch k := r.Intn(pushes + pops + 1); {
			case k < pushes:
				b = byte(r.Intn(6)) // a push of any kind
			case k < pushes+pops:
				b = 6
			default:
				b = 5 // a rewind probe
			}
			ops = append(ops, b|byte(r.Intn(32))<<3)
		}
		ops = append(ops, 7|byte(r.Intn(32))<<3) // retune at a new scale
	}
	run := runQueueOps(t, r, ops)
	t.Logf("%+v", run)
	if run.grows == 0 || run.shrinks == 0 || run.rewidths == 0 || run.rewinds == 0 || run.far == 0 || run.bursts == 0 {
		t.Fatalf("the run missed a case: %+v", run)
	}
}

// FuzzEventQueue: any sequence of pushes, bursts, far pushes, rewinding
// pushes, pops and retunes pops the reference heap's sequence.
func FuzzEventQueue(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 3, 6, 6, 7, 4, 5, 6, 14, 22})
	f.Add(int64(2), []byte{3, 11, 19, 27, 6, 14, 5, 13, 21, 4, 12, 7, 63, 0, 6})
	f.Add(int64(3), []byte{0, 0, 0, 0, 0, 0, 0, 0, 6, 6, 7, 7, 15, 4, 4, 4, 5, 5, 6, 30, 31})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		runQueueOps(t, rand.New(rand.NewSource(seed)), ops)
	})
}

// TestEventQueueNoAlloc certifies MinAt and Pop stay off the garbage
// collector, matching their //rexlint:noalloc annotations, on the scan
// path and on the year-ahead search.
func TestEventQueueNoAlloc(t *testing.T) {
	var q legQueue
	for i := 0; i < 1024; i++ {
		at := float64(1024 - i)
		if i%8 == 0 {
			at *= 1e4 // beyond a year of one-second days
		}
		q.Push(at, int32(i))
	}
	allocs := testing.AllocsPerRun(512, func() {
		q.MinAt()
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("MinAt+Pop allocate %.1f per call, want 0", allocs)
	}
}

// BenchmarkLegQueueHold is the classic hold model on the leg queue alone,
// beside the reference heap: n completions pending, each op pops the
// earliest and pushes a successor an exponential service time later, and
// the calendar retunes every 4096 ops as window boundaries would. n = 160
// is sim_steady's mean queue length at pop.
func BenchmarkLegQueueHold(b *testing.B) {
	for _, n := range []int{160, 1000} {
		b.Run(fmt.Sprintf("calendar/n%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			var q legQueue
			for i := 0; i < n; i++ {
				q.Push(r.ExpFloat64(), int32(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at, m := q.Pop()
				q.Push(at+r.ExpFloat64(), m)
				if i&4095 == 4095 {
					q.retune(at)
				}
			}
		})
		b.Run(fmt.Sprintf("heap/n%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			var h eventHeap
			for i := 0; i < n; i++ {
				h.Push(Event{At: r.ExpFloat64(), Kind: KindLegDone, M: int32(i)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := h.Pop()
				h.Push(Event{At: e.At + r.ExpFloat64(), Kind: KindLegDone, M: e.M})
			}
		})
	}
}
