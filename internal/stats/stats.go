// Package stats provides the small statistical toolkit used by the balance
// report, simulator, and experiment-harness packages: moments, percentiles,
// and dispersion measures (coefficient of variation, Gini).
package stats

import (
	"math"
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

// AlmostEqual reports whether a and b differ by at most eps, scaled by the
// larger magnitude for values above 1 (mixed absolute/relative tolerance).
// It is the sanctioned way to compare computed floats for equality; exact
// ==/!= on computed values is rejected by rexlint's floateq analyzer.
func AlmostEqual(a, b, eps float64) bool {
	if a == b { //rexlint:ignore floateq fast path, including infinities
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // distinct infinities, or infinite vs finite
	}
	scale := 1.0
	if aa := math.Abs(a); aa > scale {
		scale = aa
	}
	if ab := math.Abs(b); ab > scale {
		scale = ab
	}
	return math.Abs(a-b) <= eps*scale
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

// Percentiles returns the requested percentiles of xs in one pass over a
// single sorted copy.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

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
