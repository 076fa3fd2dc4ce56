// Fixture for the nonneg analyzer: a miniature move executor whose
// in-flight reservation counter is declared non-negative. badFinish is a
// faithful reconstruction of the executor's double-release bug: the error
// path released a reservation that the success path had already released,
// so the counter went negative. Every write is checked against the
// invariant floor 0, so a guard, an earlier increment or a read-only call
// proves nothing: guarded, balanced and peekThenRelease are findings too.
// A local copy, a waived decrement and non-decreasing writes stay clean.
package nonneg

type exec struct {
	inflight int //rexlint:nonneg
	pending  int //rexlint:nonneg
}

func failed() bool { return false }

// badFinish double-releases: both decrements start from the invariant
// floor, so both are findings; the error-path one is the real bug.
func (e *exec) badFinish() {
	if e.inflight > 0 {
		e.inflight--
		if failed() {
			e.inflight--
		}
	}
}

// unguarded decrements with no guard at all.
func (e *exec) unguarded() {
	e.pending--
}

// bigStep decrements by a constant larger than one.
func (e *exec) bigStep() {
	if e.pending > 0 {
		e.pending -= 2
	}
}

// unprovable subtracts a run-time amount.
func (e *exec) unprovable(n int) {
	if e.pending > 0 {
		e.pending -= n
	}
}

// negativeReset assigns a negative constant outright.
func (e *exec) negativeReset() {
	e.pending = -1
}

// guarded is the textbook guarded decrement; the guard is not read.
func (e *exec) guarded() {
	if e.inflight > 0 {
		e.inflight--
	}
}

// balanced reserves then releases in one body; the release is checked
// against the floor 0, not against the increment before it.
func (e *exec) balanced() {
	e.inflight++
	e.inflight--
}

// zero resets the counter through a parameter.
func zero(e *exec) { e.pending = 0 }

// resetThenRelease lets a callee write the counter through a parameter
// between the guard and the decrement.
func resetThenRelease(e *exec) {
	if e.pending > 0 {
		zero(e)
		e.pending--
	}
}

// reset resets the counter through the receiver.
func (e *exec) reset() { e.pending = 0 }

// clearThenRelease: a receiver write between the guard and the decrement.
func (e *exec) clearThenRelease() {
	if e.pending > 0 {
		e.reset()
		e.pending--
	}
}

// peek only reads the receiver.
func (e *exec) peek() int { return e.pending }

// peekThenRelease: a read-only call between the guard and the decrement.
func (e *exec) peekThenRelease() int {
	if e.pending > 0 {
		seen := e.peek()
		e.pending--
		return seen
	}
	return 0
}

// localCopy decrements a local copy, the function's own variable: clean.
func (e *exec) localCopy() int {
	remaining := e.pending
	visited := 0
	for remaining > 0 {
		remaining--
		visited++
	}
	return visited
}

// waived names the invariant that keeps its decrement legal; the
// suppression must absorb the finding and count as used.
func (e *exec) waived() {
	//rexlint:ignore nonneg every waived call pairs with a prior reserve on the single control goroutine
	e.inflight--
}

// negativeStep adds a negative constant.
func (e *exec) negativeStep() {
	e.pending += -2
}

// refunds adds a run-time amount, subtracts zero and a negative constant
// and assigns zero: none of them starts below the floor, so all are clean.
func (e *exec) refunds(n int) {
	e.pending += n
	e.pending -= 0
	e.pending -= -1
	e.inflight = 0
}

type fleet struct{ execs []exec }

// indexed writes through an index expression, outside the rule: clean.
func (f *fleet) indexed(i int) {
	f.execs[i].inflight--
}

// gauge annotates a field that is not an integer.
type gauge struct {
	level float64 //rexlint:nonneg
}
