package obs

import "strconv"

// This file is the journal's read-side fast path: a decoder for exactly
// the line form appendEvent writes, member by member in encode.go's order.
// It is a verified subset of encoding/json, not a second schema. At the
// first byte that form does not predict — whitespace, a reordered or
// unknown key, null, an escaped or non-ASCII string, a number strconv
// would read differently from json — it reports false, and ReadJournal
// decodes that one line with json.Unmarshal instead. Every line it does
// accept decodes to the Event json.Unmarshal would produce, which
// TestDecodeEventMatchesJSON and FuzzReadJournalMatchesJSON check bit for
// bit.

// The closed vocabularies. A string found here comes back as the package
// constant, so the journal's most repeated values cost no allocation.
var (
	spanKinds  = []string{SpanTrace, SpanMove, SpanSim, SpanRound, SpanSolve}
	phases     = []string{PhaseEnd, PhaseBegin}
	outcomes   = []string{OutcomeOK, OutcomeErr, OutcomeFailed, OutcomeAborted}
	ops        = []string{OpLeg, OpQueue, OpService, OpMerge, OpQuery, OpMove, OpRound, OpSolve}
	migPhases  = []string{"before", "during", "after"}
	blameKinds = []string{BlameQueue, BlameDrag}
)

// slabChunk is how many values a slab allocates at a time.
const slabChunk = 512

// slab hands out pointers to values allocated slabChunk at a time. A slot
// is handed out once: one its taker drops (a line the fast path gives up
// on, a span record a retry supersedes) stays unused.
type slab[T any] struct{ free []T }

func (s *slab[T]) next() *T {
	if len(s.free) == 0 {
		s.free = make([]T, slabChunk)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// decoder reads one line at a time. Each method takes the member's key as
// it appears on the line, punctuation included, then reads the value. The
// first mismatch empties the cursor, so every later read fails too and
// event reports false; the payload slabs outlive lines.
type decoder struct {
	b []byte
	i int

	moves  slab[MoveEvent]
	sims   slab[SimEvent]
	traces slab[TraceEvent]
	blames slab[BlameRef]
}

func (d *decoder) fail() {
	d.b, d.i = nil, 0
}

// has reports whether key is next on the line, without consuming it.
func (d *decoder) has(key string) bool {
	return len(d.b)-d.i >= len(key) && string(d.b[d.i:d.i+len(key)]) == key
}

// key consumes key, or fails.
func (d *decoder) key(key string) {
	if !d.has(key) {
		d.fail()
		return
	}
	d.i += len(key)
}

// digits advances past a run of ASCII digits and reports whether there
// was at least one.
func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// number consumes a JSON number and returns its text and whether it has a
// fraction or an exponent. strconv is only ever handed text that passed
// this grammar: on its own it also reads Inf, NaN, 0x1p-2 and 1_000.
func (d *decoder) number() (text []byte, real bool) {
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case !d.digits():
		d.fail()
		return nil, false
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if !d.digits() {
			d.fail()
			return nil, false
		}
		real = true
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			d.fail()
			return nil, false
		}
		real = true
	}
	return d.b[start:d.i], real
}

// float reads a number as json.Unmarshal does into a float64: the same
// strconv.ParseFloat on the same text, with an out-of-range value left to
// json to report.
func (d *decoder) float(key string) float64 {
	d.key(key)
	text, _ := d.number()
	if text == nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		d.fail()
		return 0
	}
	return f
}

// int reads a number as json.Unmarshal does into an int: integer text
// only, through strconv.ParseInt; a fraction, an exponent or an overflow
// is json's to report.
func (d *decoder) int(key string) int {
	d.key(key)
	text, real := d.number()
	if text == nil || real {
		d.fail()
		return 0
	}
	n, err := strconv.ParseInt(string(text), 10, 64)
	if err != nil {
		d.fail()
		return 0
	}
	return int(n)
}

// str reads a string that needs no unescaping: printable ASCII without a
// backslash, which json.Unmarshal takes byte for byte. A value in vocab
// comes back as vocab's own string.
func (d *decoder) str(key string, vocab []string) string {
	d.key(key)
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		d.fail()
		return ""
	}
	start := d.i + 1
	end := start
	for ; end < len(d.b); end++ {
		c := d.b[end]
		if c == '"' {
			break
		}
		if c < ' ' || c == '\\' || c >= 0x80 {
			d.fail()
			return ""
		}
	}
	if end == len(d.b) {
		d.fail()
		return ""
	}
	d.i = end + 1
	text := d.b[start:end]
	for _, s := range vocab {
		if string(text) == s {
			return s
		}
	}
	return string(text)
}

// event decodes line into ev, which must be zero, and reports whether the
// whole line was in appendEvent's form. On false, ev holds a partial
// decode the caller discards.
func (d *decoder) event(line []byte, ev *Event) bool {
	d.b, d.i = line, 0
	ev.T = d.float(`{"t":`)
	ev.Span = d.str(`,"span":`, spanKinds)
	ev.Phase = d.str(`,"phase":`, phases)
	ev.Round = d.int(`,"round":`)
	if d.has(`,"outcome":`) {
		ev.Outcome = d.str(`,"outcome":`, outcomes)
	}
	if d.has(`,"err":`) {
		ev.Err = d.str(`,"err":`, nil)
	}
	if d.has(`,"imbalance":`) {
		ev.Imbalance = d.float(`,"imbalance":`)
	}
	if d.has(`,"objective":`) {
		ev.Objective = d.float(`,"objective":`)
	}
	if d.has(`,"moves":`) {
		ev.Moves = d.int(`,"moves":`)
	}
	if d.has(`,"seconds":`) {
		ev.Seconds = d.float(`,"seconds":`)
	}
	if d.has(`,"move":{"seq":`) {
		m := d.moves.next()
		m.Seq = d.int(`,"move":{"seq":`)
		m.Shard = d.int(`,"shard":`)
		m.From = d.int(`,"from":`)
		m.To = d.int(`,"to":`)
		if d.has(`,"attempt":`) {
			m.Attempt = d.int(`,"attempt":`)
		}
		d.key(`}`)
		ev.Move = m
	}
	if d.has(`,"sim":{"window":`) {
		s := d.sims.next()
		s.Window = d.int(`,"sim":{"window":`)
		s.Arrivals = d.int(`,"arrivals":`)
		s.Completed = d.int(`,"completed":`)
		if d.has(`,"dropped":`) {
			s.Dropped = d.int(`,"dropped":`)
		}
		s.P50 = d.float(`,"p50":`)
		s.P99 = d.float(`,"p99":`)
		s.P999 = d.float(`,"p999":`)
		if d.has(`,"copies":`) {
			s.Copies = d.int(`,"copies":`)
		}
		d.key(`}`)
		ev.Sim = s
	}
	if d.has(`,"trace":{"id":`) {
		t := d.traces.next()
		t.ID = d.str(`,"trace":{"id":`, nil)
		t.Span = d.str(`,"sid":`, nil)
		if d.has(`,"pid":`) {
			t.Parent = d.str(`,"pid":`, nil)
		}
		t.Op = d.str(`,"op":`, ops)
		t.Start = d.float(`,"start":`)
		t.Machine = d.int(`,"machine":`)
		t.Shard = d.int(`,"shard":`)
		t.Seq = d.int(`,"seq":`)
		if d.has(`,"mig":`) {
			t.Mig = d.str(`,"mig":`, migPhases)
		}
		if d.has(`,"blocked_by":{"round":`) {
			bl := d.blames.next()
			bl.Round = d.int(`,"blocked_by":{"round":`)
			bl.Seq = d.int(`,"seq":`)
			bl.Machine = d.int(`,"machine":`)
			bl.Kind = d.str(`,"kind":`, blameKinds)
			bl.Delay = d.float(`,"delay":`)
			d.key(`}`)
			t.Blocked = bl
		}
		d.key(`}`)
		ev.Trace = t
	}
	d.key(`}`)
	return d.b != nil && d.i == len(d.b)
}

// eventChunk is how many events ReadJournal collects before starting a
// new chunk.
const eventChunk = 4096

// eventChunks collects decoded events in fixed-size chunks, so the whole
// journal is copied once, into a slice of its exact length, instead of
// once per doubling.
type eventChunks struct {
	full [][]Event
	cur  []Event
}

// next returns a zero Event slot at the end of the collection.
func (c *eventChunks) next() *Event {
	if len(c.cur) == cap(c.cur) {
		if c.cur != nil {
			c.full = append(c.full, c.cur)
		}
		c.cur = make([]Event, 0, eventChunk)
	}
	c.cur = c.cur[:len(c.cur)+1]
	return &c.cur[len(c.cur)-1]
}

// events returns everything collected, nil if nothing was.
func (c *eventChunks) events() []Event {
	n := len(c.cur)
	for _, ch := range c.full {
		n += len(ch)
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	for _, ch := range c.full {
		out = append(out, ch...)
	}
	return append(out, c.cur...)
}
