package obs

// Handles on unexported pieces for the tests in package obs_test, which
// can import the simulator that writes real journals.
var (
	FillRandom = fillRandom
	EventDiff  = eventDiff
)

// AppendEvent encodes ev alone, through a fresh float memo.
func AppendEvent(buf []byte, ev *Event) ([]byte, error) {
	return appendEvent(buf, ev, &floatMemo{})
}

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
