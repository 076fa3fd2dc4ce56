// Fixture for the alloccheck analyzer: //rexlint:noalloc functions must be
// provably allocation-free on every reachable path, callees one hop deep.
// Near-misses: dead code, debug-guarded blocks, waived amortized growth,
// and clean recursion must stay silent.
package alloccheck

// debugChecks mirrors cluster.DebugAsserts: a named boolean constant
// guarding debug-only blocks, folded from summaries regardless of value.
const debugChecks = false

// scratch is a package-level buffer reused across calls.
var scratch []int

//rexlint:noalloc
func directMake(n int) []int {
	return make([]int, n)
}

// grow appends without a size hint; callers pay the growth.
func grow(xs []int, v int) []int {
	return append(xs, v)
}

//rexlint:noalloc
func viaHelper() {
	scratch = grow(scratch, 1)
}

func sink(v any) { _ = v }

//rexlint:noalloc
func boxes(n int) {
	sink(n)
}

var hook func()

//rexlint:noalloc
func dynamic() {
	hook()
}

var saved func() int

// escapingClosure stores a capturing literal in a package variable: the
// closure is heap-allocated.
//
//rexlint:noalloc
func escapingClosure(n int) {
	saved = func() int { return n }
}

// --- near-misses: all of the below must stay silent ---

// inPlaceClosure invokes its capturing literal where it is created: no
// closure is allocated.
//
//rexlint:noalloc
func inPlaceClosure(n int) int {
	return func() int { return n * 2 }()
}

// deadInRange allocates only after a return inside a range body; the loop
// head does not hold the body, so the dead make never enters the summary.
//
//rexlint:noalloc
func deadInRange(xs []int) int {
	for _, x := range xs {
		return x
		buf := make([]int, x)
		return len(buf)
	}
	return 0
}

// deadCallInRange is the same with an allocating callee.
//
//rexlint:noalloc
func deadCallInRange(xs []int) int {
	for _, x := range xs {
		return x
		scratch = grow(scratch, x)
	}
	return 0
}

// deadAlloc allocates only in unreachable code; the CFG excludes it.
//
//rexlint:noalloc
func deadAlloc(n int) int {
	return n
	xs := make([]int, n)
	return len(xs)
}

// guarded allocates only inside a debug-assertion block, which the summary
// engine folds away so default and -tags debugasserts runs agree.
//
//rexlint:noalloc
func guarded(n int) int {
	if debugChecks {
		scratch = append(scratch, n)
	}
	return n
}

// amortized waives its append: growth into a reused buffer is amortized
// zero, and the waived site stays out of the summary callers read.
//
//rexlint:noalloc
func amortized(v int) {
	//rexlint:ignore alloccheck amortized growth of a reused scratch buffer
	scratch = append(scratch, v)
}

// callsAmortized calls an annotated callee, which it trusts: silent.
//
//rexlint:noalloc
func callsAmortized() {
	amortized(3)
}

// recurseOK calls itself, an annotated callee: no allocation on any path
// of its own, so it is silent.
//
//rexlint:noalloc
func recurseOK(n int) int {
	if n <= 0 {
		return 0
	}
	return n + recurseOK(n-1)
}
