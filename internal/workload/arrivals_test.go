package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// flatTrace builds a trace with exactly rate arrivals in every 1-second
// window over the duration (deterministic spacing, cost 1).
func flatTrace(rate int, duration float64) *Trace {
	tr := &Trace{Duration: duration}
	for w := 0.0; w < duration; w++ {
		for i := 0; i < rate; i++ {
			tr.Queries = append(tr.Queries, Query{At: w + (float64(i)+0.5)/float64(rate), Cost: 1})
		}
	}
	return tr
}

func TestArrivalsBasicProperties(t *testing.T) {
	tr := flatTrace(50, 10)
	rng := rand.New(rand.NewSource(1))
	got := tr.Arrivals(2, 7, rng)
	if !sort.Float64sAreSorted(got) {
		t.Fatal("arrivals not sorted")
	}
	for _, at := range got {
		if at < 2 || at >= 7 {
			t.Fatalf("arrival %g outside [2,7)", at)
		}
	}
	// Expect ~ rate·span = 250 arrivals; Poisson sd ≈ 16, allow 5σ.
	if n := len(got); n < 170 || n > 330 {
		t.Fatalf("got %d arrivals over a 5s span at rate 50, want ≈250", n)
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	tr := flatTrace(20, 5)
	a := tr.Arrivals(0, 12, rand.New(rand.NewSource(7)))
	b := tr.Arrivals(0, 12, rand.New(rand.NewSource(7)))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverges at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestArrivalsWindowEdges pins boundary behaviour: a span aligned exactly
// on window edges, a span strictly inside one window, and a span starting
// on the trace's final partial window.
func TestArrivalsWindowEdges(t *testing.T) {
	tr := flatTrace(100, 4)
	rng := rand.New(rand.NewSource(3))

	aligned := tr.Arrivals(1, 3, rng)
	for _, at := range aligned {
		if at < 1 || at >= 3 {
			t.Fatalf("aligned-span arrival %g outside [1,3)", at)
		}
	}
	if n := len(aligned); n < 120 || n > 280 {
		t.Fatalf("aligned span: got %d arrivals, want ≈200", n)
	}

	inner := tr.Arrivals(1.25, 1.75, rng)
	for _, at := range inner {
		if at < 1.25 || at >= 1.75 {
			t.Fatalf("inner-span arrival %g outside [1.25,1.75)", at)
		}
	}

	// Trace with a non-integral duration: the last bucket is 0.5s wide and
	// must still use its own width as the rate denominator.
	short := flatTrace(100, 4)
	short.Duration = 4.5
	for i := 0; i < 50; i++ {
		short.Queries = append(short.Queries, Query{At: 4 + float64(i)/100, Cost: 1})
	}
	tail := short.Arrivals(4, 4.5, rng)
	if n := len(tail); n < 20 || n > 90 {
		t.Fatalf("partial final bucket: got %d arrivals, want ≈50 (rate 100/s over 0.5s)", n)
	}
}

// TestArrivalsZeroIntensityWindows: windows of the trace with no queries
// must generate no arrivals, while surrounding windows still do.
func TestArrivalsZeroIntensityWindows(t *testing.T) {
	tr := &Trace{Duration: 3}
	for i := 0; i < 40; i++ {
		tr.Queries = append(tr.Queries, Query{At: 0 + float64(i)/40, Cost: 1}) // window [0,1) busy
	}
	for i := 0; i < 40; i++ {
		tr.Queries = append(tr.Queries, Query{At: 2 + float64(i)/40, Cost: 1}) // window [2,3) busy
	}
	// window [1,2) is empty
	rng := rand.New(rand.NewSource(5))
	got := tr.Arrivals(0, 3, rng)
	mid := 0
	for _, at := range got {
		if at >= 1 && at < 2 {
			mid++
		}
	}
	if mid != 0 {
		t.Fatalf("zero-intensity window produced %d arrivals", mid)
	}
	if len(got) < 30 {
		t.Fatalf("busy windows produced only %d arrivals", len(got))
	}

	// A span entirely inside the dead window is empty.
	if dead := tr.Arrivals(1.1, 1.9, rng); len(dead) != 0 {
		t.Fatalf("span inside zero-intensity window produced %d arrivals", len(dead))
	}
}

// TestArrivalsWrapsTrace: spans past the trace end replay the trace's
// intensity modulo its duration, including the zero-intensity hole.
func TestArrivalsWrapsTrace(t *testing.T) {
	tr := &Trace{Duration: 2}
	for i := 0; i < 60; i++ {
		tr.Queries = append(tr.Queries, Query{At: float64(i) / 60, Cost: 1}) // [0,1) busy, [1,2) empty
	}
	rng := rand.New(rand.NewSource(9))
	got := tr.Arrivals(10, 14, rng) // two full trace passes
	if !sort.Float64sAreSorted(got) {
		t.Fatal("wrapped arrivals not sorted")
	}
	for _, at := range got {
		if at < 10 || at >= 14 {
			t.Fatalf("wrapped arrival %g outside [10,14)", at)
		}
		phase := wrapTime(at, 2)
		if phase >= 1 {
			t.Fatalf("arrival %g lands in the wrapped zero-intensity window (phase %g)", at, phase)
		}
	}
	if n := len(got); n < 70 || n > 180 {
		t.Fatalf("wrapped span: got %d arrivals, want ≈120", n)
	}
}

// TestArrivalsDegenerateSpans: inverted/empty spans and zero-duration
// traces yield nil.
func TestArrivalsDegenerateSpans(t *testing.T) {
	tr := flatTrace(10, 2)
	rng := rand.New(rand.NewSource(1))
	if got := tr.Arrivals(3, 3, rng); got != nil {
		t.Fatalf("empty span: got %v", got)
	}
	if got := tr.Arrivals(5, 4, rng); got != nil {
		t.Fatalf("inverted span: got %v", got)
	}
	empty := &Trace{}
	if got := empty.Arrivals(0, 1, rng); got != nil {
		t.Fatalf("zero-duration trace: got %v", got)
	}
}

// TestArrivalsHighRate: one-second buckets far above the single-draw
// ceiling still offer their full rate (a lone Knuth product loop caps
// near 745 per bucket, where exp(-mean) underflows).
func TestArrivalsHighRate(t *testing.T) {
	for _, rate := range []int{1000, 2000} {
		got := len(flatTrace(rate, 20).Arrivals(0, 20, rand.New(rand.NewSource(5))))
		want := float64(rate) * 20
		if d := math.Abs(float64(got) - want); d > 4*math.Sqrt(want) {
			t.Errorf("rate %d: %d arrivals over 20s, want %.0f ±4σ", rate, got, want)
		}
	}
}

// TestArrivalsDrawSequencePinned: means at or below the ceiling keep the
// single product loop, so every existing seed keeps its arrival sequence.
func TestArrivalsDrawSequencePinned(t *testing.T) {
	got := flatTrace(600, 3).Arrivals(0, 3, rand.New(rand.NewSource(11)))
	sum := 0.0
	for _, at := range got {
		sum += at
	}
	if len(got) != 1800 || got[0] != 0.004171608547574677 ||
		got[len(got)-1] != 2.9965329357230575 || sum != 2723.1351574695186 {
		t.Errorf("pinned sequence moved: n=%d first=%v last=%v sum=%v",
			len(got), got[0], got[len(got)-1], sum)
	}
}
