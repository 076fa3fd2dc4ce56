package obs

// Handles on unexported pieces for the tests in package obs_test, which
// can import the simulator that writes real journals.
var (
	AppendEvent = appendEvent
	FillRandom  = fillRandom
	EventDiff   = eventDiff
)

// DecodeLine runs the fast-path decoder alone on one journal line and
// reports whether it took the whole line.
func DecodeLine(line []byte) (Event, bool) {
	var (
		d  decoder
		ev Event
	)
	ok := d.event(line, &ev)
	return ev, ok
}
