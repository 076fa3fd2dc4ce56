// Fixture for the streamflow analyzer: a miniature partitioned RNG family
// whose Stream method is the //rexlint:streamsource, plus the positive
// cases (a policy helper drawing from the workload stream it never
// declared, an ad-hoc string-literal stream key, a dynamic stream name)
// and the near-miss negatives (a declared hand-off, a sanctioned waiver).
package streamflow

import "math/rand"

// Exported stream-name constants — the only sanctioned way to name a
// stream.
const (
	StreamWorkload = "workload"
	StreamDrift    = "drift"
	StreamChaos    = "chaos"
)

type family struct{ base int64 }

// Stream derives the named sub-stream.
//
//rexlint:streamsource
func (f *family) Stream(name string) *rand.Rand {
	return rand.New(rand.NewSource(f.base + int64(len(name))))
}

// arrivals owns the workload stream and hands it to pickShard, which never
// declared it — the policy-draws-workload bug the analyzer exists for.
//
//rexlint:stream workload
func arrivals(f *family) float64 {
	r := f.Stream(StreamWorkload)
	return pickShard(r)
}

// pickShard draws from whatever RNG it is given; it declares no stream.
func pickShard(r *rand.Rand) float64 { return r.Float64() }

// driftWalk declares drift but draws workload too: both minting the
// undeclared stream and drawing through its tainted handle are flagged.
//
//rexlint:stream drift
func driftWalk(f *family) float64 {
	w := f.Stream(StreamWorkload)
	d := f.Stream(StreamDrift)
	return w.Float64() + d.Float64()
}

// adHocKey mints a stream with a string literal instead of a named
// constant, so the key cannot be cross-referenced.
//
//rexlint:stream chaos
func adHocKey(f *family) *rand.Rand {
	return f.Stream("chaos")
}

// dynamicKey computes the stream name at run time.
func dynamicKey(f *family, suffix string) *rand.Rand {
	return f.Stream("w" + suffix)
}

// undeclaredDraw draws through a tainted receiver without any declaration.
func undeclaredDraw(f *family) int {
	r := f.Stream(StreamDrift)
	return r.Intn(10)
}

// declaredHandoff passes the drift stream to a callee that declares it:
// clean.
//
//rexlint:stream drift
func declaredHandoff(f *family) float64 {
	r := f.Stream(StreamDrift)
	return driftStep(r)
}

// driftStep declares the drift stream it receives.
//
//rexlint:stream drift
func driftStep(r *rand.Rand) float64 { return r.NormFloat64() }

// waivedHandoff hands the chaos stream to an undeclared callee under an
// explicit waiver; the suppression must absorb the finding and count as
// used (an unused waiver is itself an error).
//
//rexlint:stream chaos
func waivedHandoff(f *family) {
	r := f.Stream(StreamChaos)
	//rexlint:ignore streamflow failure injection is wired outside the isolation proof on purpose
	inject(r)
}

// inject declares nothing.
func inject(r *rand.Rand) { _ = r.Int() }

// dynamicHandoff hands the drift stream to a function value, a call with
// no resolvable callee, without declaring the stream.
func dynamicHandoff(f *family, use func(*rand.Rand)) {
	use(f.Stream(StreamDrift))
}

// chaosRNG owns the chaos stream and returns it, the way des.Sim.Chaos
// does: a call of it mints the chaos stream for the caller.
//
//rexlint:stream chaos
func chaosRNG(f *family) *rand.Rand { return f.Stream(StreamChaos) }

// chaosDraw draws from the minted chaos stream without declaring it.
func chaosDraw(f *family) float64 {
	r := chaosRNG(f)
	return r.Float64()
}
