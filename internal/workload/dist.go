// Package workload generates the inputs to the rebalancing experiments:
// synthetic and "realistic" datacenter instances (machine fleets, shard
// populations, initial placements) and query-arrival traces for the cluster
// simulator. All generation is deterministic given a seed.
//
// The realistic generator stands in for the paper's proprietary datacenter
// snapshots (see DESIGN.md §3): heavy-tailed (lognormal) shard sizes,
// Zipf-skewed query popularity, heterogeneous machine generations, and high
// static fill are the stylized facts it reproduces.
package workload

import (
	"math"
	"math/rand"
)

// LogNormal samples a lognormal variate with the given parameters of the
// underlying normal (mu, sigma).
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// ZipfWeights returns n weights proportional to 1/rank^s, normalized to sum
// to 1. s = 0 yields uniform weights. The returned slice is ordered by rank
// (index 0 is the heaviest).
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Shuffled returns a permutation of 0..n-1 drawn from r.
func Shuffled(r *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
