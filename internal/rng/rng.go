// Package rng centralizes the module's seed-derivation discipline. Every
// deterministic subsystem (the parallel solver portfolio, the partitioned
// solver's per-round sub-solves, the discrete-event simulator's workload
// and service streams) derives decorrelated child seeds from one base seed
// with the splitmix64 finalizer, so that:
//
//   - a fixed base seed always yields the same family of child seeds,
//     independent of host, GOMAXPROCS, or scheduling;
//   - child seeds are pairwise distinct across the index patterns a
//     harness plausibly sweeps (consecutive seeds, stride-spaced seeds,
//     golden-ratio-spaced seeds) — additive strides do not survive the
//     mix, so seed sweeps never silently rerun a correlated search;
//   - adding a consumer never perturbs an existing one: each subsystem
//     draws from its own sub-stream (Partitioned), keyed by name, and the
//     key → seed map has no positional structure to collide on.
package rng

import (
	"math/rand"
	"sync"
)

// golden is the 64-bit golden-ratio constant 0x9E3779B97F4A7C15, the Weyl
// increment used by splitmix64 to space successive stream states.
const golden = 0x9E3779B97F4A7C15

// Canonical sub-stream names. Partitioned streams are keyed by name (not
// registration order), so these constants are documentation plus typo
// insurance: every consumer of a shared stream family must name the same
// stream to share it — and must NOT name these to stay isolated from them.
const (
	// StreamWorkload drives arrival times, per-query costs, and shard
	// picks. Nothing else may draw from it: the reproducibility contract
	// is that policy, chaos, and observability cannot perturb workload.
	StreamWorkload = "workload"
	// StreamDrift walks shard popularity between windows.
	StreamDrift = "drift"
	// StreamChaos feeds failure injection.
	StreamChaos = "chaos"
	// StreamTrace feeds trace sampling decisions and trace-ID minting.
	// Turning tracing on or off, or changing the sample rate, only
	// advances this stream — offered load and arrival sequences stay
	// bit-identical.
	StreamTrace = "trace"
)

// Mix64 is the splitmix64 finalizer: an avalanching bijection on uint64.
// Every derived seed in the module funnels through it so that structured
// inputs (small integers, stride sweeps) come out statistically unrelated.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// WorkerSeed derives the seed of worker/restart i from the base seed.
// Index 0 keeps the base seed unchanged so a portfolio always contains the
// single-run search (core's restart-portfolio tests rely on it). Higher
// indices hash the *mixed* base with a Weyl-sequence step and re-mix — a
// splitmix64-style combination of (base, i).
//
// The additive stride this construction replaced — base + i·0x9E3779B1 —
// made restart i of a run seeded S collide with restart i−1 of a run
// seeded S+0x9E3779B1, so stride-spaced seed sweeps silently ran
// correlated (duplicate) searches. Hashing the base seed before the
// stride is applied removes that structure: a collision now requires
// Mix64(S)−Mix64(S′) to land exactly on a small multiple of the 64-bit
// golden ratio, which no simple seed-sweep pattern produces.
// TestWorkerSeedsPairwiseDistinct pins both the old failure shape and
// general pairwise distinctness.
func WorkerSeed(base int64, i int) int64 {
	if i == 0 {
		return base
	}
	return int64(Mix64(Mix64(uint64(base)) + uint64(i)*golden))
}

// CellSeed derives a child seed from the base seed and a tuple of indices
// by chained splitmix64 steps — WorkerSeed extended to arbitrarily many
// indices so no two cells of a multi-dimensional sweep (e.g. the
// partitioned solver's (round, partition) grid) collide structurally.
// Each index is offset by one before mixing so that CellSeed(base) with a
// trailing zero index differs from the shorter tuple.
func CellSeed(base int64, idx ...int) int64 {
	z := Mix64(uint64(base))
	for _, i := range idx {
		z = Mix64(z + uint64(i+1)*golden)
	}
	return int64(z)
}

// streamSeed hashes a subsystem name into the Weyl step applied to the
// mixed base: FNV-1a over the name, then the splitmix64 chain. Name-keyed
// (rather than registration-order-keyed) derivation is what makes the
// split stable: adding or removing a subsystem never changes any other
// subsystem's stream.
func streamSeed(base int64, name string) int64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	return int64(Mix64(Mix64(uint64(base)) + Mix64(h)))
}

// Partitioned hands out one isolated rand.Rand per named subsystem, all
// derived from a single base seed. Draws from one stream never advance
// another, so a policy that consumes extra randomness (say, a new routing
// policy drawing from "service") cannot perturb workload generation
// drawing from "workload" — the property the discrete-event simulator's
// reproducibility contract rests on.
//
// Stream is safe for concurrent callers resolving *different* names; the
// returned *rand.Rand values are not concurrency-safe, matching math/rand.
type Partitioned struct {
	base int64

	mu      sync.Mutex
	streams map[string]*rand.Rand // guarded by: mu
}

// NewPartitioned returns a stream family over the base seed.
func NewPartitioned(base int64) *Partitioned {
	return &Partitioned{base: base, streams: make(map[string]*rand.Rand)}
}

// Stream returns the subsystem's RNG, creating it on first use. The same
// (base seed, name) pair always yields a stream with the same sequence,
// regardless of which other streams exist or how much they have drawn.
//
// rexlint's streamflow analyzer treats the returned value as tainted with
// the stream name: callers must pass a named constant and declare
// ownership with //rexlint:stream.
//
//rexlint:streamsource
func (p *Partitioned) Stream(name string) *rand.Rand {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.streams[name]
	if !ok {
		r = rand.New(rand.NewSource(streamSeed(p.base, name)))
		p.streams[name] = r
	}
	return r
}
