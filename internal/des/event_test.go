package des

import (
	"math/rand"
	"testing"
)

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

// TestEventHeapPopNoAlloc certifies the event-pop path stays off the
// garbage collector, matching its //rexlint:noalloc annotation.
func TestEventHeapPopNoAlloc(t *testing.T) {
	h := &eventHeap{}
	for i := 0; i < 1024; i++ {
		h.Push(Event{At: float64(1024 - i), Kind: KindArrival})
	}
	allocs := testing.AllocsPerRun(512, func() {
		h.Pop()
	})
	if allocs != 0 {
		t.Fatalf("Pop allocates %.1f per call, want 0", allocs)
	}
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
