package main

import (
	"math"

	"rexchange/internal/stats"
)

// metricStat summarises one metric over the repetitions of a run: the
// median is the reported value, the quartiles and the count say how far
// to trust it.
type metricStat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarise returns median and quartiles of xs.
func summarise(xs []float64, unit string) metricStat {
	q := stats.Percentiles(xs, 25, 50, 75)
	return metricStat{Value: q[1], Unit: unit, Q1: q[0], Q3: q[2], N: len(xs)}
}

func median(xs []float64) float64 { return stats.Percentiles(xs, 50)[0] }

// spread is the interquartile range as a share of the median.
func (m metricStat) spread() float64 {
	if m.Value == 0 {
		return 0
	}
	return math.Abs((m.Q3 - m.Q1) / m.Value)
}

// highestPercentile returns the highest of the usual tail percentiles
// that still has at least ten samples beyond it in a sample of n, so a
// reported tail is never an extrapolation from a handful of queries.
// It returns 0 when even the median has fewer than ten samples above it.
func highestPercentile(n int) float64 {
	best := 0.0
	// Parts per 100000, so the count beyond is exact integer arithmetic.
	for _, pp := range []int{50000, 90000, 99000, 99900, 99990, 99999} {
		if n*(100000-pp)/100000 >= 10 {
			best = float64(pp) / 1000
		}
	}
	return best
}
