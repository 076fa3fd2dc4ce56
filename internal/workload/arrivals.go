package workload

import (
	"math"
	"math/rand"
	"sort"
)

// ArrivalWindow is the granularity (seconds) at which Arrivals reads the
// trace's intensity profile: the trace timeline is cut into windows of
// this width and each window's arrival rate is the number of trace
// queries it contains divided by its width.
const ArrivalWindow = 1.0

// Arrivals synthesizes a fresh arrival sequence over [t0, t1) whose rate
// follows the trace's windowed intensity: the requested span is cut at
// ArrivalWindow boundaries of the (wrapped) trace timeline, each piece
// draws a Poisson count at the rate of the trace window it lands in, and
// the arrivals spread uniformly within the piece. Times past the trace
// end wrap modulo the trace duration, so a finite trace can drive an
// arbitrarily long simulation — the same convention ctl.TraceDriftSource
// uses for load snapshots.
//
// The result is sorted ascending, every time lies in [t0, t1), and a
// zero-intensity window contributes nothing (and consumes only the one
// Poisson draw, so downstream pieces stay aligned). The sequence is fully
// determined by (trace, t0, t1, rng state): the discrete-event simulator
// feeds a dedicated workload sub-stream (internal/rng) so adding a policy
// elsewhere can never perturb it. An inverted or empty span, or a trace
// without positive duration, yields nil.
func (t *Trace) Arrivals(t0, t1 float64, rng *rand.Rand) []float64 {
	if t1 <= t0 || t.Duration <= 0 {
		return nil
	}
	var out []float64
	D := t.Duration
	for x := t0; x < t1; {
		// End of this piece: the next ArrivalWindow boundary of the
		// absolute timeline, clipped to the span's end and to the trace
		// end (so a piece never straddles the wrap point).
		end := math.Floor(x/ArrivalWindow)*ArrivalWindow + ArrivalWindow
		if end > t1 {
			end = t1
		}
		ws := wrapTime(x, D)
		if rem := D - ws; end-x > rem {
			end = x + rem
		}
		width := end - x
		if width <= 0 {
			// Defensive: float rounding at the wrap point; step past it.
			x = end + 1e-12
			continue
		}
		out = append(out, pieceArrivals(t, x, ws, width, rng)...)
		x = end
	}
	sort.Float64s(out)
	return out
}

// pieceArrivals draws the arrivals of one piece: absolute start x, wrapped
// trace position ws, width strictly inside one ArrivalWindow bucket and
// one trace pass.
func pieceArrivals(t *Trace, x, ws, width float64, rng *rand.Rand) []float64 {
	// The intensity bucket containing ws, clipped to the trace end (the
	// final bucket of a non-multiple duration is short).
	b0 := math.Floor(ws/ArrivalWindow) * ArrivalWindow
	b1 := b0 + ArrivalWindow
	if b1 > t.Duration {
		b1 = t.Duration
	}
	if b1 <= b0 {
		return nil
	}
	lo := sort.Search(len(t.Queries), func(i int) bool { return t.Queries[i].At >= b0 })
	hi := sort.Search(len(t.Queries), func(i int) bool { return t.Queries[i].At >= b1 })
	rate := float64(hi-lo) / (b1 - b0)
	n := poisson(rng, rate*width)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = x + rng.Float64()*width
	}
	return out
}

// poissonMaxMean is the largest mean one product loop draws: exp(-mean)
// underflows to zero near 745, which would cap every count there.
const poissonMaxMean = 700

// poisson draws a Poisson-distributed count by Knuth's product method,
// summing draws of at most poissonMaxMean each (exact, since independent
// Poisson counts add). A non-positive mean consumes no randomness and
// returns 0, so empty trace windows keep the stream aligned regardless of
// float noise in the mean.
func poisson(rng *rand.Rand, mean float64) int {
	n := 0
	for ; mean > 0; mean -= poissonMaxMean {
		limit := math.Exp(-math.Min(mean, poissonMaxMean))
		for p := rng.Float64(); p > limit; p *= rng.Float64() {
			n++
		}
	}
	return n
}

// wrapTime maps x onto [0, d).
func wrapTime(x, d float64) float64 {
	r := math.Mod(x, d)
	if r < 0 {
		r += d
	}
	return r
}
