package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Values the differential test draws from: every branch of json's float
// rule (zero, negative zero, both exponent cutoffs from both sides,
// integers, normals, the extremes) and of its string escaping.
var (
	oracleFloats = []float64{
		0, math.Copysign(0, -1), 1, -3, 42, 20.25, 0.1, 1.0 / 3, 123456.789,
		1e-6, 9.999999e-7, 1.5e-7, -9.87654321e-7, 3e-10, 5e-324,
		9.99e20, 1e21, -2.5e21, 1e300, math.MaxFloat64,
	}
	oracleStrings = []string{
		"", "ok", "00000000000000ab", `say "hi"`, `back\slash`, "<a>&b", "line\nbreak",
		"tab\there", "\b\f\r", "\x01\x1f", "\x7f", "\u2028x\u2029", "bad\xffbyte",
		"cut\xe2\x82", "héllo wörld", "日本語", "\ufffd",
	}
	oracleInts = []int{0, 0, 1, -1, 7, 99, 100, 123456789, math.MaxInt64, math.MinInt64}
)

// fillRandom sets every field reachable from v — through structs and
// through pointers, which it leaves nil one time in three — to a value
// drawn from the oracle sets. A field of a kind the encoder has no method
// for fails the test by name.
func fillRandom(t *testing.T, r *rand.Rand, path string, v reflect.Value) {
	t.Helper()
	fillFrom(t, r, oracleFloats, path, v)
}

// fillFrom is fillRandom with floats drawn from the given pool.
func fillFrom(t *testing.T, r *rand.Rand, floats []float64, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(floats[r.Intn(len(floats))])
	case reflect.Int:
		v.SetInt(int64(oracleInts[r.Intn(len(oracleInts))]))
	case reflect.String:
		v.SetString(oracleStrings[r.Intn(len(oracleStrings))])
	case reflect.Pointer:
		if r.Intn(3) == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fillFrom(t, r, floats, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillFrom(t, r, floats, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	default:
		t.Fatalf("%s is a %s: appendEvent has no encoding for that kind; add one there and a case here", path, v.Kind())
	}
}

// TestAppendEventMatchesJSON holds the hand-written encoder to
// encoding/json byte for byte. Events are filled by reflection, so a field
// added to Event or one of its payloads is exercised here the day it is
// added, whether or not appendEvent learned about it.
func TestAppendEventMatchesJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var (
		buf  []byte
		memo floatMemo
	)
	for i := 0; i < 20000; i++ {
		var ev Event
		fillRandom(t, r, "Event", reflect.ValueOf(&ev).Elem())
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("oracle refused %+v: %v", ev, err)
		}
		buf, err = appendEvent(buf[:0], &ev, &memo)
		if err != nil {
			t.Fatalf("appendEvent refused %s: %v", want, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("event %d:\n got %s\nwant %s", i, buf, want)
		}
	}
}

// TestJournalStreamMatchesJSON holds a whole journal, float memo and all,
// to encoding/json: one Journal writes 20 000 events whose floats come
// from a pool small enough that the memo both hits and misses on every
// distinction it must keep — 0 from -0, two values one ulp apart, and
// the exponent forms json rewrites (1e-07 → 1e-7) — and each line it
// writes must be json.Marshal's.
func TestJournalStreamMatchesJSON(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 1e-7, 9.999999e-7, 1e21, 0.1, math.Nextafter(0.1, 1)}
	r := rand.New(rand.NewSource(4))
	var got bytes.Buffer
	j := NewJournal(&got)
	for i := 0; i < 20000; i++ {
		// A campaign's journal opens at t=0, a +0 the fresh memo's empty
		// slots must not claim to hold.
		ev := Event{Span: SpanRound, Phase: PhaseBegin}
		if i > 0 {
			ev = Event{}
			fillFrom(t, r, pool, "Event", reflect.ValueOf(&ev).Elem())
		}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("oracle refused %+v: %v", ev, err)
		}
		want = append(want, '\n')
		n := got.Len()
		j.Emit(ev)
		if line := got.Bytes()[n:]; !bytes.Equal(line, want) {
			t.Fatalf("event %d:\n got %s\nwant %s", i, line, want)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzAppendEvent: raw float bits and arbitrary strings through every
// field, same oracle. Where json.Marshal refuses (NaN, ±Inf), appendEvent
// must refuse too. Each event is encoded twice through one memo, so the
// second line is written from what the first stored.
func FuzzAppendEvent(f *testing.F) {
	f.Add(math.Float64bits(21.5), math.Float64bits(1e-7), math.Float64bits(1e21), "trace", "end", int64(-1), byte(0xff))
	f.Add(math.Float64bits(math.Copysign(0, -1)), uint64(0), math.Float64bits(math.NaN()), "a\"b\\c<d>&e", "\u2028\xff\x01", int64(0), byte(0x0f))
	f.Add(math.Float64bits(math.Inf(-1)), uint64(1), math.Float64bits(9.999999e-7), "", "日本", int64(math.MinInt64), byte(0))
	f.Add(uint64(0), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(0.1), "00000000000000ab", "leg", int64(3), byte(0x0f))
	f.Fuzz(func(t *testing.T, a, b, c uint64, s, u string, n int64, shape byte) {
		x, y, z := math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)
		ev := Event{
			T: x, Span: s, Phase: u, Round: int(n),
			Outcome: u, Err: s, Imbalance: y, Objective: z, Moves: int(n), Seconds: x,
		}
		if shape&1 != 0 {
			ev.Move = &MoveEvent{Seq: int(n), Shard: int(a), From: int(b), To: int(c), Attempt: int(n)}
		}
		if shape&2 != 0 {
			ev.Sim = &SimEvent{Window: int(n), Arrivals: int(a), Completed: int(b), Dropped: int(c),
				P50: x, P99: y, P999: z, Copies: int(n)}
		}
		if shape&4 != 0 {
			ev.Trace = &TraceEvent{ID: s, Span: u, Parent: s, Op: u, Start: z,
				Machine: int(n), Shard: int(a), Seq: int(b), Mig: s}
			if shape&8 != 0 {
				ev.Trace.Blocked = &BlameRef{Round: int(n), Seq: int(c), Machine: int(a), Kind: u, Delay: y}
			}
		}
		want, wantErr := json.Marshal(ev)
		var memo floatMemo
		for pass := 1; pass <= 2; pass++ {
			got, gotErr := appendEvent(nil, &ev, &memo)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("pass %d: json err %v, appendEvent err %v", pass, wantErr, gotErr)
			}
			if wantErr == nil && !bytes.Equal(got, want) {
				t.Fatalf("pass %d:\n got %s\nwant %s", pass, got, want)
			}
		}
	})
}

// TestIDStringIsSixteenHexDigits: trace and span IDs render as %016x does.
func TestIDStringIsSixteenHexDigits(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, v := range []uint64{0, 1, 0xab, 0x0123456789abcdef, math.MaxUint64, r.Uint64(), r.Uint64()} {
		want := fmt.Sprintf("%016x", v)
		if got := TraceID(v).String(); got != want {
			t.Errorf("TraceID(%#x).String() = %q, want %q", v, got, want)
		}
		if got := SpanID(v).String(); got != want {
			t.Errorf("SpanID(%#x).String() = %q, want %q", v, got, want)
		}
	}
}

// fullEvent has every payload attached, so every float field is reachable.
func fullEvent() Event {
	return Event{
		T: 21.5, Span: SpanTrace, Phase: PhaseEnd, Round: 2, Outcome: OutcomeOK,
		Imbalance: 1.5, Objective: 1.125, Moves: 7, Seconds: 0.5,
		Move: &MoveEvent{Seq: 1, Shard: 3, From: 0, To: 4, Attempt: 1},
		Sim:  &SimEvent{Window: 2, Arrivals: 100, Completed: 98, P50: 0.01, P99: 0.25, P999: 0.5},
		Trace: &TraceEvent{ID: "00000000000000ab", Span: "00000000000000cd", Parent: "00000000000000ef",
			Op: OpLeg, Start: 20.25, Machine: 4, Shard: 9, Seq: -1,
			Blocked: &BlameRef{Round: 2, Seq: 5, Machine: 4, Kind: BlameQueue, Delay: 0.125}},
	}
}

// floatFields lists every float64 reachable from v with its JSON name.
func floatFields(v reflect.Value) (names []string, fields []reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Pointer && !f.IsNil() {
			f = f.Elem()
		}
		switch f.Kind() {
		case reflect.Float64:
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			names, fields = append(names, name), append(fields, f)
		case reflect.Struct:
			n, fs := floatFields(f)
			names, fields = append(names, n...), append(fields, fs...)
		}
	}
	return names, fields
}

// linesWriter records each Write it receives.
type linesWriter struct{ writes []string }

func (w *linesWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

// TestEmitUnencodableEventNamesItself: a NaN or ±Inf in any float field of
// any payload ends the journal with an error naming the event's ordinal,
// its span kind and the JSON field; nothing of that event reaches the
// writer, Len does not advance, and later events are dropped.
func TestEmitUnencodableEventNamesItself(t *testing.T) {
	base := fullEvent()
	names, _ := floatFields(reflect.ValueOf(&base).Elem())
	if len(names) < 9 {
		t.Fatalf("found only %d float fields (%v); the walk is broken", len(names), names)
	}
	for i, name := range names {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			w := &linesWriter{}
			j := NewJournal(w)
			j.Emit(fullEvent())
			ev := fullEvent()
			_, fields := floatFields(reflect.ValueOf(&ev).Elem())
			fields[i].SetFloat(bad)
			j.Emit(ev)
			j.Emit(fullEvent())

			err := j.Err()
			if err == nil {
				t.Fatalf("%s = %v: journal accepted it", name, bad)
			}
			want := fmt.Sprintf("obs: event 1 (span trace): field %q: unsupported value %v", name, bad)
			if err.Error() != want {
				t.Fatalf("%s = %v:\n got %q\nwant %q", name, bad, err, want)
			}
			if j.Close() == nil {
				t.Fatalf("%s = %v: Close lost the sticky error", name, bad)
			}
			if j.Len() != 1 {
				t.Fatalf("%s = %v: Len = %d, want 1", name, bad, j.Len())
			}
			if len(w.writes) != 1 || !strings.HasSuffix(w.writes[0], "}\n") {
				t.Fatalf("%s = %v: writer saw %q, want the one good line only", name, bad, w.writes)
			}
		}
	}
}

// TestEmitAllocFree pins the write path at zero allocations per event once
// the journal's line buffer has grown: Journal.Emit for each payload shape,
// and Tracer.Emit called the way des.traceLegDone calls it — IDs rendered
// in the argument list, the TraceEvent passed by value, its address taken
// inside. The last case is the escape-analysis trap encode.go describes: a
// string or pointer of the event reaching an interface anywhere under Emit
// puts one TraceEvent and three ID strings per span back on the heap.
func TestEmitAllocFree(t *testing.T) {
	j := NewJournal(io.Discard)
	tr := NewTracer(rand.New(rand.NewSource(1)), 1, j)
	tr.AttachMetrics(NewRegistry())
	id := TraceID(0x9e3779b97f4a7c15)
	cases := []struct {
		name string
		emit func()
	}{
		{"trace span with blocked_by", func() {
			j.Emit(Event{T: 21.5, Span: SpanTrace, Phase: PhaseEnd, Round: 2,
				Trace: &TraceEvent{ID: "00000000000000ab", Span: "00000000000000cd", Parent: "00000000000000ef",
					Op: OpLeg, Start: 20.25, Machine: 4, Shard: 9, Seq: -1,
					Blocked: &BlameRef{Round: 2, Seq: 5, Machine: 4, Kind: BlameQueue, Delay: 0.125}}})
		}},
		{"move span", func() {
			j.Emit(Event{T: 12.5, Span: SpanMove, Phase: PhaseEnd, Round: 2, Outcome: OutcomeAborted,
				Seconds: 1.5, Move: &MoveEvent{Seq: 0, Shard: 3, From: 0, To: 4, Attempt: 1}})
		}},
		{"sim window", func() {
			j.Emit(Event{T: 20, Span: SpanSim, Phase: PhaseEnd, Round: 2,
				Sim: &SimEvent{Window: 2, Arrivals: 100, Completed: 98, Dropped: 1, P50: 0.01, P99: 0.25, P999: 0.5, Copies: 3}})
		}},
		{"Tracer.Emit as des.traceLegDone calls it", func() {
			leg := DeriveSpan(id, 2, 3)
			tr.Emit(12.25, 3, TraceEvent{
				ID: id.String(), Span: DeriveSpan(id, 2, 3, 0).String(),
				Parent: leg.String(), Op: OpQueue,
				Start: 12.125, Machine: 4, Shard: 9, Seq: -1,
			})
			tr.Emit(12.5, 3, TraceEvent{
				ID: id.String(), Span: leg.String(),
				Parent: DeriveSpan(id, 0).String(), Op: OpLeg,
				Start: 12.125, Machine: 4, Shard: 9, Seq: -1,
				Blocked: &BlameRef{Round: 2, Seq: 5, Machine: 4, Kind: BlameDrag, Delay: 0.0625},
			})
		}},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, c.emit); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, allocs)
		}
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
}

// legRecords are the three trace records the simulator writes per traced
// leg (des.traceLegDone): the queue span ends at svcAt, the service and
// leg spans at t, and the leg span starts where the queue span does.
type legRecords struct {
	tr [3]TraceEvent
	ev [3]Event
}

func newLegRecords() *legRecords {
	l := &legRecords{}
	for k, op := range []string{OpQueue, OpService, OpLeg} {
		l.tr[k] = TraceEvent{ID: "9e3779b97f4a7c15", Span: "c2b2ae3d27d4eb4f", Parent: "165667b19e3779f9",
			Op: op, Machine: 4, Shard: 9, Seq: -1}
		l.ev[k] = Event{Span: SpanTrace, Phase: PhaseEnd, Round: 2, Trace: &l.tr[k]}
	}
	l.tr[2].Blocked = &BlameRef{Round: 2, Seq: 5, Machine: 4, Kind: BlameQueue, Delay: 0.125739}
	return l
}

// record returns record k of leg n. Times advance per leg by steps that
// keep each one a full-length shortest form, as simulated times are.
func (l *legRecords) record(n, k int) Event {
	enq := 20.258817 + float64(n)*0.0013791
	svcAt := enq + 0.0071143
	t := svcAt + 0.0029517
	ends := [3]float64{svcAt, t, t}
	starts := [3]float64{enq, svcAt, enq}
	l.ev[k].T, l.tr[k].Start = ends[k], starts[k]
	return l.ev[k]
}

// BenchmarkJournalEmit is the per-event cost of the write path on its own:
// encode plus one Write to a sink that does nothing. trace_span walks the
// simulator's three records per leg, so the float memo hits where a real
// journal lets it and no more.
func BenchmarkJournalEmit(b *testing.B) {
	legs := newLegRecords()
	move := Event{T: 12.5, Span: SpanMove, Phase: PhaseEnd, Round: 2, Outcome: OutcomeOK,
		Seconds: 1.531, Move: &MoveEvent{Seq: 17, Shard: 3, From: 0, To: 4, Attempt: 1}}
	for _, c := range []struct {
		name string
		ev   func(i int) Event
	}{
		{"trace_span", func(i int) Event { return legs.record(i/3, i%3) }},
		{"move_span", func(int) Event { return move }},
	} {
		b.Run(c.name, func(b *testing.B) {
			j := NewJournal(io.Discard)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j.Emit(c.ev(i))
			}
			if err := j.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
