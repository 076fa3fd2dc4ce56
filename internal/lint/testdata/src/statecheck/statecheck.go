// Fixture for the statecheck analyzer: a miniature move lifecycle with a
// declared status machine. badTransition skips a state; the near-misses
// assign from an unknown prior status, walk the declared happy path, and
// narrow the status through if and switch conditions.
//
//rexlint:transition Pending -> InFlight Cancelled
//rexlint:transition InFlight -> Done Retrying Cancelled
//rexlint:transition Retrying -> InFlight Cancelled
//rexlint:transition Done ->
//rexlint:transition Cancelled ->
package statecheck

// Status is the per-move lifecycle state.
type Status int

const (
	Pending Status = iota
	InFlight
	Retrying
	Done
	Cancelled
)

type state struct {
	id     int
	status Status
}

// badTransition skips the state machine: Pending may not jump to Done.
func badTransition(st *state) {
	st.status = Pending
	st.status = Done
}

// okGuarded transitions only when the status was observed InFlight.
func okGuarded(st *state) {
	if st.status == InFlight {
		st.status = Cancelled
	}
}

// okUnknown: assigning from an unknown prior status is never flagged.
func okUnknown(st *state) {
	st.status = Done
}

// okLifecycle walks the declared happy path end to end.
func okLifecycle(st *state) {
	st.status = Pending
	st.status = InFlight
	st.status = Done
}

// okSwitch narrows through the synthesized case equalities.
func okSwitch(st *state) {
	switch st.status {
	case InFlight:
		st.status = Retrying
	case Retrying:
		st.status = Cancelled
	}
}

// okLoop narrows each move afresh: the loop head does not re-read the body
// with the previous iteration's facts.
func okLoop(sts []*state) {
	for _, st := range sts {
		if st.status == InFlight {
			st.status = Cancelled
		}
	}
}

// badSeeded seeds the status with a composite literal, then skips the
// state machine from that seeded Pending.
func badSeeded() *state {
	st := &state{status: Pending}
	st.status = Done
	return st
}
