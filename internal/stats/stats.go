// Package stats provides the small statistical toolkit used by the balance
// report, simulator, and experiment-harness packages: moments, percentiles,
// and dispersion measures (coefficient of variation, Gini).
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CV returns the coefficient of variation (stddev/mean) of xs, or 0 when the
// mean is zero. It is the primary imbalance scalar reported by the
// experiment harness.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentiles returns the requested percentiles of xs, interpolated between
// the two order statistics around each rank. It copies xs once and selects
// just the ranks the percentiles read, in ascending order, each selection
// running on the part of the copy above the last: the values are those a
// full sort would put at those ranks, at a few linear passes instead of a
// sort.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	buf := append([]float64(nil), xs...)
	ranks := make([]int, 0, 2*len(ps))
	for _, p := range ps {
		lo, hi, _ := percentileRanks(len(buf), p)
		ranks = append(ranks, lo, hi)
	}
	sort.Ints(ranks)
	next := 0 // every rank asked for below next is in place; buf[next:] ranks after them
	for _, r := range ranks {
		if r >= next {
			selectRank(buf[next:], r-next)
			next = r + 1
		}
	}
	for i, p := range ps {
		lo, hi, frac := percentileRanks(len(buf), p)
		if lo == hi {
			out[i] = buf[lo]
		} else {
			out[i] = buf[lo]*(1-frac) + buf[hi]*frac
		}
	}
	return out
}

// percentileRanks returns the ranks of a sorted n-sample that percentile p
// interpolates between, and the weight of the upper one.
func percentileRanks(n int, p float64) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// selectRank reorders xs so that xs[k] holds the value sort.Float64s would
// put there, with nothing after it ordered before it and nothing before it
// ordered after it. It is Hoare's selection with a median-of-three pivot:
// expected linear time, and a range that keeps failing to shrink is sorted
// outright, so the worst case is O(n log n).
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 16 && budget > 0; budget-- {
		mid := lo + (hi-lo)/2
		if floatLess(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if floatLess(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if floatLess(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for floatLess(xs[i], pivot) {
				i++
			}
			for floatLess(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] ≤ pivot ≤ xs[i..hi], and xs[j+1..i-1] ties the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	sort.Float64s(xs[lo : hi+1])
}

// floatLess is sort.Float64s's order: NaN before every number.
func floatLess(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// Gini returns the Gini coefficient of non-negative xs: 0 for perfect
// equality, approaching 1 for maximal concentration. Negative inputs are an
// error in the caller's model; they are clamped to zero.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	for i, x := range xs {
		if x < 0 {
			x = 0
		}
		sorted[i] = x
	}
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		cum += x * float64(i+1)
		total += x
	}
	if total == 0 {
		return 0
	}
	nf := float64(n)
	return (2*cum - (nf+1)*total) / (nf * total)
}
