package obs

import (
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file is the journal's write-side encoder. Its contract is byte
// identity with encoding/json over Event: the same field order, the same
// omitempty rules, the same float and string forms. The struct tags stay
// the schema of record, and json.Unmarshal stays the read side's oracle
// and its fallback for any line decode.go's fast path does not take.
// TestAppendEventMatchesJSON, which fills Event by reflection, is what
// ties this file to the tags: a field added to a struct without a line
// here fails it, and a line added here without one in decode.go sends
// every journal line to the fallback, which TestDecodeEventMatchesJSON
// fails.
//
// Nothing in this file may hand a string or pointer taken from the event
// to an interface (fmt, an error holding a field of the event,
// json.Marshal for the rare escaped string). That would make the event
// escape in every caller, and Tracer.Emit would heap-allocate one
// TraceEvent per span; TestEmitAllocFree pins it.

const hexDigits = "0123456789abcdef"

// hex16 renders v as 16 lowercase hex digits. It is small enough to
// inline, so a caller whose result does not escape formats on its stack.
func hex16(v uint64) string {
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// unsupportedFloat is the encoder's one error: a NaN or ±Inf, which JSON
// cannot carry, under the JSON name of the field that held it.
type unsupportedFloat struct {
	field string
	v     float64
}

func (e *unsupportedFloat) Error() string {
	return "field " + strconv.Quote(e.field) + ": unsupported value " + FormatFloat(e.v)
}

// encoder appends one record to b. Each method takes the member's key as
// it appears on the line, punctuation included (`,"start":`), then the
// value. bad keeps the first float JSON cannot carry; encoding runs on to
// the end regardless and appendEvent discards the line.
type encoder struct {
	b    []byte
	bad  unsupportedFloat
	memo *floatMemo
}

func (e *encoder) int(key string, v int) {
	e.b = strconv.AppendInt(append(e.b, key...), int64(v), 10)
}

// float follows encoding/json: shortest 'f' form, or 'e' below 1e-6 and
// from 1e21 with a one-digit negative exponent written e-9, not e-09.
func (e *encoder) float(key string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.bad.field == "" {
			name := key[:len(key)-len(`":`)]
			e.bad = unsupportedFloat{field: name[strings.LastIndexByte(name, '"')+1:], v: f}
		}
		return
	}
	b := append(e.b, key...)
	bits := math.Float64bits(f)
	if text, ok := e.memo.lookup(bits); ok {
		e.b = append(b, text...)
		return
	}
	from := len(b)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.memo.store(bits, b[from:])
	e.b = b
}

// floatMemo holds the final text of the last few floats the encoder
// formatted, keyed by their bits, so -0 and 0 are different keys. The
// simulator writes three records per traced leg whose times pair up (the
// queue span ends where the service span starts, the service and leg
// spans end together, the leg span starts where the queue span does), so
// about half of a traced journal's floats were formatted a record or two
// earlier. NaN and ±Inf are refused before lookup and never stored.
type floatMemo struct {
	slots [3]memoSlot
	next  int // the slot the next store overwrites
}

// memoSlot is one memo entry. n == 0 marks it empty, so a fresh slot,
// whose bits read as +0, matches nothing: no float formats to nothing.
type memoSlot struct {
	bits uint64
	n    uint8
	text [32]byte // the longest form json writes is 25 bytes (-0.0000012345678901234567)
}

func (m *floatMemo) lookup(bits uint64) ([]byte, bool) {
	for i := range m.slots {
		if s := &m.slots[i]; s.n != 0 && s.bits == bits {
			return s.text[:s.n], true
		}
	}
	return nil, false
}

func (m *floatMemo) store(bits uint64, text []byte) {
	s := &m.slots[m.next]
	s.bits, s.n = bits, uint8(copy(s.text[:], text))
	m.next = (m.next + 1) % len(m.slots)
}

// htmlSafe marks the bytes json.Marshal copies into a string unchanged:
// ' ' through DEL except ", \, <, > and &, as encoding/json's htmlSafeSet.
var htmlSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// str follows encoding/json with HTML escaping on, as json.Marshal has
// it: ", \ and control bytes escaped, <, > and & as \u00XX, U+2028 and
// U+2029 as \u202X, each invalid UTF-8 byte as \ufffd. A string with
// nothing to escape, as every ID and op name is, is one copy.
func (e *encoder) str(key, s string) {
	b := append(e.b, key...)
	b = append(b, '"')
	i := 0
	for i < len(s) && htmlSafe[s[i]] {
		i++
	}
	start := 0 // s[start:i] is scanned and needs no escaping
	for i < len(s) {
		c := s[i]
		if htmlSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// appendEvent appends ev as one JSON object, without a newline, exactly
// as json.Marshal(ev) renders it, or fails on the first NaN or ±Inf. memo
// carries formatted floats from one call to the next.
func appendEvent(buf []byte, ev *Event, memo *floatMemo) ([]byte, error) {
	e := encoder{b: buf, memo: memo}
	e.float(`{"t":`, ev.T)
	e.str(`,"span":`, ev.Span)
	e.str(`,"phase":`, ev.Phase)
	e.int(`,"round":`, ev.Round)
	if ev.Outcome != "" {
		e.str(`,"outcome":`, ev.Outcome)
	}
	if ev.Err != "" {
		e.str(`,"err":`, ev.Err)
	}
	if ev.Imbalance != 0 {
		e.float(`,"imbalance":`, ev.Imbalance)
	}
	if ev.Objective != 0 {
		e.float(`,"objective":`, ev.Objective)
	}
	if ev.Moves != 0 {
		e.int(`,"moves":`, ev.Moves)
	}
	if ev.Seconds != 0 {
		e.float(`,"seconds":`, ev.Seconds)
	}
	if m := ev.Move; m != nil {
		e.int(`,"move":{"seq":`, m.Seq)
		e.int(`,"shard":`, m.Shard)
		e.int(`,"from":`, m.From)
		e.int(`,"to":`, m.To)
		if m.Attempt != 0 {
			e.int(`,"attempt":`, m.Attempt)
		}
		e.b = append(e.b, '}')
	}
	if s := ev.Sim; s != nil {
		e.int(`,"sim":{"window":`, s.Window)
		e.int(`,"arrivals":`, s.Arrivals)
		e.int(`,"completed":`, s.Completed)
		if s.Dropped != 0 {
			e.int(`,"dropped":`, s.Dropped)
		}
		e.float(`,"p50":`, s.P50)
		e.float(`,"p99":`, s.P99)
		e.float(`,"p999":`, s.P999)
		if s.Copies != 0 {
			e.int(`,"copies":`, s.Copies)
		}
		e.b = append(e.b, '}')
	}
	if t := ev.Trace; t != nil {
		e.str(`,"trace":{"id":`, t.ID)
		e.str(`,"sid":`, t.Span)
		if t.Parent != "" {
			e.str(`,"pid":`, t.Parent)
		}
		e.str(`,"op":`, t.Op)
		e.float(`,"start":`, t.Start)
		e.int(`,"machine":`, t.Machine)
		e.int(`,"shard":`, t.Shard)
		e.int(`,"seq":`, t.Seq)
		if t.Mig != "" {
			e.str(`,"mig":`, t.Mig)
		}
		if bl := t.Blocked; bl != nil {
			e.int(`,"blocked_by":{"round":`, bl.Round)
			e.int(`,"seq":`, bl.Seq)
			e.int(`,"machine":`, bl.Machine)
			e.str(`,"kind":`, bl.Kind)
			e.float(`,"delay":`, bl.Delay)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, '}')
	}
	if e.bad.field != "" {
		bad := e.bad
		return buf, &bad
	}
	return append(e.b, '}'), nil
}
