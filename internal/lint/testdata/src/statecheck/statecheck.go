// Fixture for the statecheck analyzer: a miniature move executor with a
// declared status machine and a reservation resource. badComplete is a
// faithful reconstruction of the PR-4 executor bug: the reservation was
// released, but on the error path the move's status stayed InFlight, so
// the abort sweep observed a held status and released the reservation a
// second time.
//
//rexlint:transition Pending -> InFlight Cancelled
//rexlint:transition InFlight -> Done Retrying Cancelled
//rexlint:transition Retrying -> InFlight Cancelled
//rexlint:transition Done ->
//rexlint:transition Cancelled ->
//rexlint:resource reservation held=InFlight acquire=reserve release=release
package statecheck

import "errors"

var errFailed = errors.New("move failed")

// Status is the per-move lifecycle state.
type Status int

const (
	Pending Status = iota
	InFlight
	Retrying
	Done
	Cancelled
)

type move struct{ id int }

type state struct {
	mv     move
	status Status
}

type exec struct{ reserved int }

func (e *exec) reserve(mv move) { e.reserved++ }
func (e *exec) release(mv move) { e.reserved-- }

// badComplete is the PR-4 shape: release, then return on the error path
// without moving the status off InFlight. The analyzer infers the status
// was InFlight from the release itself, even though this function never
// read it.
func (e *exec) badComplete(st *state, failed bool) error {
	mv := st.mv
	e.release(mv)
	if failed {
		return errFailed // want `returning with reservation released but status possibly still InFlight`
	}
	st.status = Done
	return nil
}

// badDouble releases the same owner twice on one path.
func (e *exec) badDouble(st *state) {
	e.release(st.mv)
	st.status = Cancelled
	e.release(st.mv) // want `reservation released twice on this path`
}

// badTransition skips the state machine: Pending may not jump to Done.
func badTransition(st *state) {
	st.status = Pending
	st.status = Done // want `invalid transition Pending -> Done`
}

// badRelease releases while the status provably excludes InFlight.
func (e *exec) badRelease(st *state) {
	if st.status == Pending {
		e.release(st.mv) // want `reservation released while status is Pending`
	}
}

// okComplete is the fixed PR-4 shape: every return after the release has
// the status moved off InFlight first.
func (e *exec) okComplete(st *state, failed bool) error {
	mv := st.mv
	e.release(mv)
	if failed {
		st.status = Cancelled
		return errFailed
	}
	st.status = Done
	return nil
}

// okGuarded releases only when the status was observed InFlight, and
// transitions away immediately.
func (e *exec) okGuarded(st *state) {
	if st.status == InFlight {
		e.release(st.mv)
		st.status = Cancelled
	}
}

// okUnknown: assigning from an unknown prior status is never flagged.
func okUnknown(st *state) {
	st.status = Done
}

// okLifecycle walks the declared happy path end to end.
func (e *exec) okLifecycle(st *state) {
	st.status = Pending
	st.status = InFlight
	e.reserve(st.mv)
	e.release(st.mv)
	st.status = Done
}

// okSwitch narrows through the synthesized case equalities.
func (e *exec) okSwitch(st *state) {
	switch st.status {
	case InFlight:
		e.release(st.mv)
		st.status = Retrying
	case Retrying:
		st.status = Cancelled
	}
}

// buffers declares a release of its own; it is not the reservation's
// release, so calling it twice is no double release.
type buffers struct{ free int }

func (b *buffers) release(mv move) { b.free++ }

func okOtherRelease(b *buffers, st *state) {
	b.release(st.mv)
	b.release(st.mv)
}

// okLoopRelease releases each in-flight move's reservation once; the loop
// head does not re-read the body with the previous iteration's facts.
func (e *exec) okLoopRelease(sts []*state) {
	for _, st := range sts {
		if st.status == InFlight {
			e.release(st.mv)
			st.status = Cancelled
		}
	}
}
