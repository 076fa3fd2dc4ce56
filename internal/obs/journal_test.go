package obs

import (
	"math"
	"strings"
	"testing"
)

// TestJournalPinnedSchema pins the JSONL encoding of each span kind: the
// journal is a wire format consumed by rexwatch and external tooling, so
// field names and omission rules must not drift.
func TestJournalPinnedSchema(t *testing.T) {
	var b strings.Builder
	j := NewJournal(&b)
	j.Emit(Event{T: 10, Span: SpanRound, Phase: PhaseBegin, Round: 2, Imbalance: 1.5})
	j.Emit(Event{T: 10, Span: SpanSolve, Phase: PhaseEnd, Round: 2, Outcome: OutcomeOK,
		Objective: 1.125, Moves: 7, Seconds: 0.5})
	j.Emit(Event{T: 11, Span: SpanMove, Phase: PhaseBegin, Round: 2,
		Move: &MoveEvent{Seq: 0, Shard: 3, From: 0, To: 4, Attempt: 1}})
	j.Emit(Event{T: 12.5, Span: SpanMove, Phase: PhaseEnd, Round: 2, Outcome: OutcomeAborted,
		Seconds: 1.5, Move: &MoveEvent{Seq: 0, Shard: 3, From: 0, To: 4, Attempt: 1}})
	j.Emit(Event{T: 20, Span: SpanSim, Phase: PhaseEnd, Round: 2,
		Sim: &SimEvent{Window: 2, Arrivals: 100, Completed: 98, Dropped: 1, P50: 0.01, P99: 0.25, P999: 0.5, Copies: 3}})
	j.Emit(Event{T: 21.5, Span: SpanTrace, Phase: PhaseEnd, Round: 2,
		Trace: &TraceEvent{ID: "00000000000000ab", Span: "00000000000000cd", Parent: "00000000000000ef",
			Op: OpLeg, Start: 20.25, Machine: 4, Shard: 9, Seq: -1,
			Blocked: &BlameRef{Round: 2, Seq: 5, Machine: 4, Kind: BlameQueue, Delay: 0.125}}})
	j.Emit(Event{T: 22, Span: SpanTrace, Phase: PhaseEnd, Round: 2,
		Trace: &TraceEvent{ID: "00000000000000ab", Span: "00000000000000aa",
			Op: OpQuery, Start: 20, Machine: -1, Shard: -1, Seq: -1, Mig: "during"}})
	// Floats at json's exponent cutoffs and negative zero (kept where the
	// field is always written, dropped under omitempty).
	j.Emit(Event{T: 1e21, Span: SpanSolve, Phase: PhaseEnd, Round: 3,
		Imbalance: 2.5e-7, Objective: 1e-6, Seconds: math.Copysign(0, -1)})
	j.Emit(Event{T: math.Copysign(0, -1), Span: SpanSim, Phase: PhaseEnd, Round: 3,
		Sim: &SimEvent{Window: 3, P50: 1.25e-10, P99: 999999999999999900000, P999: -3e22}})
	j.Emit(Event{T: 23, Span: SpanRound, Phase: PhaseEnd, Round: 3, Outcome: OutcomeErr,
		Err: "solve \"m<3>\" & co:\n\tbad\\path \x01\u2028\xff é"})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	want := `{"t":10,"span":"round","phase":"begin","round":2,"imbalance":1.5}
{"t":10,"span":"solve","phase":"end","round":2,"outcome":"ok","objective":1.125,"moves":7,"seconds":0.5}
{"t":11,"span":"move","phase":"begin","round":2,"move":{"seq":0,"shard":3,"from":0,"to":4,"attempt":1}}
{"t":12.5,"span":"move","phase":"end","round":2,"outcome":"aborted","seconds":1.5,"move":{"seq":0,"shard":3,"from":0,"to":4,"attempt":1}}
{"t":20,"span":"sim","phase":"end","round":2,"sim":{"window":2,"arrivals":100,"completed":98,"dropped":1,"p50":0.01,"p99":0.25,"p999":0.5,"copies":3}}
{"t":21.5,"span":"trace","phase":"end","round":2,"trace":{"id":"00000000000000ab","sid":"00000000000000cd","pid":"00000000000000ef","op":"leg","start":20.25,"machine":4,"shard":9,"seq":-1,"blocked_by":{"round":2,"seq":5,"machine":4,"kind":"queue","delay":0.125}}}
{"t":22,"span":"trace","phase":"end","round":2,"trace":{"id":"00000000000000ab","sid":"00000000000000aa","op":"query","start":20,"machine":-1,"shard":-1,"seq":-1,"mig":"during"}}
{"t":1e+21,"span":"solve","phase":"end","round":3,"imbalance":2.5e-7,"objective":0.000001}
{"t":-0,"span":"sim","phase":"end","round":3,"sim":{"window":3,"arrivals":0,"completed":0,"p50":1.25e-10,"p99":999999999999999900000,"p999":-3e+22}}
{"t":23,"span":"round","phase":"end","round":3,"outcome":"err","err":"solve \"m\u003c3\u003e\" \u0026 co:\n\tbad\\path \u0001\u2028\ufffd é"}
`
	if got := b.String(); got != want {
		t.Fatalf("journal schema drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if j.Len() != 10 {
		t.Fatalf("Len = %d, want 10", j.Len())
	}
}

// TestJournalRoundtrip writes events and reads them back.
func TestJournalRoundtrip(t *testing.T) {
	var b strings.Builder
	j := NewJournal(&b)
	evs := []Event{
		{T: 1, Span: SpanRound, Phase: PhaseBegin, Round: 0},
		{T: 2, Span: SpanRound, Phase: PhaseEnd, Round: 0, Outcome: OutcomeOK, Imbalance: 1.2},
		{T: 2, Span: SpanMove, Phase: PhaseBegin, Round: 0, Move: &MoveEvent{Seq: 1, Shard: 9, From: 2, To: 0}},
	}
	for _, ev := range evs {
		j.Emit(ev)
	}
	got, err := ReadJournal(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("read %d events, want %d", len(got), len(evs))
	}
	if got[2].Move == nil || got[2].Move.Shard != 9 || got[2].Move.To != 0 {
		t.Fatalf("move payload corrupted: %+v", got[2].Move)
	}
	if got[1].Imbalance != 1.2 || got[1].Outcome != OutcomeOK {
		t.Fatalf("round payload corrupted: %+v", got[1])
	}
}

// TestReadJournalRejectsMalformed checks error reporting with line
// numbers.
func TestReadJournalRejectsMalformed(t *testing.T) {
	_, err := ReadJournal(strings.NewReader("{\"t\":1,\"span\":\"round\",\"phase\":\"begin\",\"round\":0}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2 parse failure", err)
	}
	_, err = ReadJournal(strings.NewReader("{\"t\":1}\n"))
	if err == nil || !strings.Contains(err.Error(), "missing span/phase") {
		t.Fatalf("err = %v, want missing span/phase", err)
	}
	ok := "{\"t\":1,\"span\":\"round\",\"phase\":\"begin\",\"round\":0}\n"
	_, err = ReadJournal(strings.NewReader(ok + ok + "{\"t\":2,\"span\":\"bogus\",\"phase\":\"end\",\"round\":0}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "unknown span kind \"bogus\"") {
		t.Fatalf("err = %v, want unknown span kind at line 3", err)
	}
	_, err = ReadJournal(strings.NewReader(ok + "{\"t\":2,\"span\":\"trace\",\"phase\":\"end\",\"round\":0}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "trace span without trace payload") {
		t.Fatalf("err = %v, want missing trace payload at line 2", err)
	}
	// A truncated final line is malformed JSON, reported with its number.
	_, err = ReadJournal(strings.NewReader(ok + "{\"t\":3,\"span\":\"tr"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want truncated line 2 failure", err)
	}
	// A record over the scanner's 1 MiB cap is named by its line too, not
	// reported as a position-less read failure.
	_, err = ReadJournal(strings.NewReader(ok + ok + strings.Repeat("x", 1<<20+1) + "\n" + ok))
	if err == nil || !strings.HasPrefix(err.Error(), "obs: journal line 3: ") || !strings.Contains(err.Error(), "token too long") {
		t.Fatalf("err = %v, want oversized line 3 failure", err)
	}
}

// TestJournalStickyError checks that a failing writer disables the
// journal rather than surfacing per-event errors.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, strings.NewReader("").UnreadByte() // any non-nil error
}

func TestJournalStickyError(t *testing.T) {
	fw := &failWriter{}
	j := NewJournal(fw)
	j.Emit(Event{T: 1, Span: SpanRound, Phase: PhaseBegin})
	j.Emit(Event{T: 2, Span: SpanRound, Phase: PhaseEnd})
	if j.Err() == nil {
		t.Fatal("expected sticky error")
	}
	if fw.n != 1 {
		t.Fatalf("writer called %d times, want 1 (sticky short-circuit)", fw.n)
	}
	if j.Len() != 0 {
		t.Fatalf("Len = %d, want 0", j.Len())
	}
}

// failCloser fails every write and records whether it was closed.
type failCloser struct {
	failWriter
	closed bool
}

func (f *failCloser) Close() error { f.closed = true; return nil }

// TestCreateJournalCloseReportsFlushFailure: buffered events reach the
// destination only at close, so a failing flush must be the reported
// error, and the file must be closed all the same. The close function is
// the journal's whole teardown: a sticky emit error comes out of it too,
// ahead of anything the flush has to say.
func TestCreateJournalCloseReportsFlushFailure(t *testing.T) {
	fc := &failCloser{}
	j, closeFn := bufferJournal(fc)
	j.Emit(Event{T: 1, Span: SpanRound, Phase: PhaseBegin})
	if err := j.Err(); err != nil {
		t.Fatalf("emit into the buffer failed early: %v", err)
	}
	if err := closeFn(); err == nil {
		t.Fatal("close swallowed the flush failure")
	}
	if !fc.closed {
		t.Fatal("file left open after a failed flush")
	}
	if err := closeFn(); err != nil {
		t.Fatalf("second close = %v, want a no-op", err)
	}

	fc = &failCloser{}
	j, closeFn = bufferJournal(fc)
	j.Emit(Event{T: math.NaN(), Span: SpanRound, Phase: PhaseBegin})
	err := closeFn()
	if err == nil || !strings.Contains(err.Error(), `field "t"`) {
		t.Fatalf("close = %v, want the journal's sticky emit error", err)
	}
	if !fc.closed {
		t.Fatal("file left open after a sticky emit error")
	}
	if fc.n != 0 {
		t.Fatalf("writer called %d times for a journal that never accepted an event", fc.n)
	}
	if err := closeFn(); err != nil {
		t.Fatalf("second close = %v, want a no-op", err)
	}
}
