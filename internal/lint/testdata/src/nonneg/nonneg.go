// Fixture for the nonneg analyzer: a miniature move executor whose
// in-flight reservation counter is declared non-negative. badFinish is a
// faithful reconstruction of the PR-4 executor bug: the error path
// released a reservation that the success path had already released, so
// the counter went negative. The near-miss negatives show what the proof
// accepts: guard-refined decrements, balanced reserve/release in one body,
// a read-only call between guard and decrement, and a discharged
// //rexlint:requires precondition.
package nonneg

type exec struct {
	inflight int //rexlint:nonneg
	pending  int //rexlint:nonneg
}

func failed() bool { return false }

// badFinish double-releases: after the guarded decrement the proven lower
// bound is back to zero, so the error-path decrement can go negative.
func (e *exec) badFinish() {
	if e.inflight > 0 {
		e.inflight--
		if failed() {
			e.inflight-- // want `e\.inflight may go negative: decrement of //rexlint:nonneg counter at proven lower bound 0`
		}
	}
}

// unguarded decrements at entry, where nothing is proven.
func (e *exec) unguarded() {
	e.pending-- // want `e\.pending may go negative: decrement of //rexlint:nonneg counter at proven lower bound 0`
}

// bigStep decrements by more than the guard proves.
func (e *exec) bigStep() {
	if e.pending > 0 {
		e.pending -= 2 // want `e\.pending may go negative: decrement by 2 at proven lower bound 1`
	}
}

// unprovable subtracts a run-time amount the proof cannot bound.
func (e *exec) unprovable(n int) {
	if e.pending > 0 {
		e.pending -= n // want `e\.pending may go negative: decrement of //rexlint:nonneg counter by a non-constant amount cannot be proven`
	}
}

// negativeReset assigns a negative constant outright.
func (e *exec) negativeReset() {
	e.pending = -1 // want `//rexlint:nonneg counter e\.pending assigned negative constant -1`
}

// guarded is the textbook proven decrement: clean.
func (e *exec) guarded() {
	if e.inflight > 0 {
		e.inflight--
	}
}

// balanced reserves then releases in one body; the local bound covers the
// decrement: clean.
func (e *exec) balanced() {
	e.inflight++
	e.inflight--
}

// zero resets the counter through a parameter.
func zero(e *exec) { e.pending = 0 }

// resetThenRelease lets a callee write the counter through a parameter
// between the guard and the decrement, so the guard proves nothing.
func resetThenRelease(e *exec) {
	if e.pending > 0 {
		zero(e)
		e.pending-- // want `e\.pending may go negative: decrement of //rexlint:nonneg counter at proven lower bound 0`
	}
}

// reset resets the counter through the receiver.
func (e *exec) reset() { e.pending = 0 }

// clearThenRelease: a receiver write drops the guard's bound the same way.
func (e *exec) clearThenRelease() {
	if e.pending > 0 {
		e.reset()
		e.pending-- // want `e\.pending may go negative: decrement of //rexlint:nonneg counter at proven lower bound 0`
	}
}

// peek only reads the receiver.
func (e *exec) peek() int { return e.pending }

// peekThenRelease keeps the guard's bound across a read-only call: clean.
func (e *exec) peekThenRelease() int {
	if e.pending > 0 {
		seen := e.peek()
		e.pending--
		return seen
	}
	return 0
}

// drainOne may only run on a non-empty executor.
//
//rexlint:requires pending>=1
func (e *exec) drainOne() {
	e.pending--
}

// drainAll discharges the precondition with the loop guard: clean.
func (e *exec) drainAll() {
	for e.pending > 0 {
		e.drainOne()
	}
}

// drainBlind calls drainOne without establishing the precondition.
func (e *exec) drainBlind() {
	e.drainOne() // want `call to .*drainOne requires pending >= 1 \(//rexlint:requires\); caller's proven lower bound is 0`
}

// localCopy tracks a derived local under the same invariant.
func (e *exec) localCopy() int {
	remaining := e.pending
	visited := 0
	for remaining > 0 {
		remaining--
		visited++
	}
	return visited
}

// waived documents an invariant the checker cannot see; the suppression
// must absorb the finding and count as used.
func (e *exec) waived() {
	//rexlint:ignore nonneg every waived call pairs with a prior reserve on the single control goroutine
	e.inflight--
}
