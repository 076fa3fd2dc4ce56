package obs

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// traceEv builds one SpanTrace journal record.
func traceEv(t float64, round int, te TraceEvent) Event {
	return Event{T: t, Span: SpanTrace, Phase: PhaseEnd, Round: round, Trace: &te}
}

// testTraceEvents is a tiny synthetic journal: one query trace with two
// legs (one blamed on move r0#3), its merge span, plus the move's own
// span in the round trace, with the move span emitted twice (a retry) to
// exercise last-record-wins dedup.
func testTraceEvents() []Event {
	q := TraceID(0xabc)
	root := DeriveSpan(q, 0).String()
	merge := DeriveSpan(q, 1).String()
	leg0 := DeriveSpan(q, 2, 0).String()
	leg1 := DeriveSpan(q, 2, 1).String()
	rt := RoundTraceID(0)
	return []Event{
		traceEv(1.5, 0, TraceEvent{ // fast leg
			ID: q.String(), Span: leg0, Parent: root, Op: OpLeg,
			Start: 1.0, Machine: 2, Shard: 7, Seq: -1,
		}),
		traceEv(4.0, 0, TraceEvent{ // slow leg, blamed
			ID: q.String(), Span: leg1, Parent: root, Op: OpLeg,
			Start: 1.0, Machine: 5, Shard: 9, Seq: -1,
			Blocked: &BlameRef{Round: 0, Seq: 3, Machine: 5, Kind: BlameQueue, Delay: 1.25},
		}),
		traceEv(4.0, 0, TraceEvent{
			ID: q.String(), Span: merge, Parent: root, Op: OpMerge,
			Start: 1.5, Machine: 5, Shard: -1, Seq: -1,
		}),
		traceEv(4.0, 0, TraceEvent{
			ID: q.String(), Span: root, Op: OpQuery,
			Start: 1.0, Machine: -1, Shard: -1, Seq: -1, Mig: "during",
		}),
		traceEv(2.0, 0, TraceEvent{ // first attempt, superseded by retry below
			ID: rt.String(), Span: MoveSpanID(0, 3).String(), Parent: RoundSpanID(0).String(),
			Op: OpMove, Start: 0.5, Machine: 4, Shard: 9, Seq: 3,
		}),
		traceEv(3.0, 0, TraceEvent{ // retry record wins
			ID: rt.String(), Span: MoveSpanID(0, 3).String(), Parent: RoundSpanID(0).String(),
			Op: OpMove, Start: 2.0, Machine: 6, Shard: 9, Seq: 3,
		}),
	}
}

func TestBuildTracesShape(t *testing.T) {
	traces := BuildTraces(testTraceEvents())
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	q := traces[0]
	if q.Root == nil || q.Root.Op != OpQuery {
		t.Fatalf("first trace root = %+v, want query span", q.Root)
	}
	if got := q.Root.Duration(); got != 3.0 {
		t.Fatalf("query duration %v, want 3.0", got)
	}
	if n := len(q.Root.Children); n != 3 {
		t.Fatalf("query root has %d children, want 3 (2 legs + merge)", n)
	}
	// Children sorted by (Start, span ID): both legs start at 1.0, merge
	// at 1.5, so the merge is last.
	if q.Root.Children[2].Op != OpMerge {
		t.Fatalf("last child op %q, want merge", q.Root.Children[2].Op)
	}

	rt := traces[1]
	if rt.Root != nil {
		t.Fatalf("round trace has root %+v; no round span was journaled", rt.Root)
	}
	if len(rt.Spans) != 1 {
		t.Fatalf("round trace has %d spans, want 1 (move deduped)", len(rt.Spans))
	}
	mv := rt.Spans[0]
	if mv.Start != 2.0 || mv.Machine != 6 {
		t.Fatalf("dedup kept first move record: %+v, want the retry (start 2, machine 6)", mv.TraceEvent)
	}
	if mv.Round != 0 {
		t.Fatalf("move span round %d, want 0", mv.Round)
	}
}

func TestTraceReportsPinned(t *testing.T) {
	traces := BuildTraces(testTraceEvents())

	wantCritical := "phase before  no sampled queries\n" +
		"phase during  trace 0000000000000abc  latency 3.000000  arrive 1.000000\n" +
		"  slowest leg: machine 5 shard 9  span 3.000000\n" +
		"    blocked_by move r0#3  machine 5  queue 1.250000\n" +
		"  merge wait 2.500000 behind machine 5\n" +
		"phase after   no sampled queries\n"
	if got := CriticalPath(traces); got != wantCritical {
		t.Fatalf("critical path:\n%s\nwant:\n%s", got, wantCritical)
	}

	wantBlame := "blame by move:\n" +
		"  move r0#3     delay 1.250000  legs 1 (drag 0, queue 1)  shard 9 -> machine 6\n" +
		"blame by machine:\n" +
		"  machine 5    delay 1.250000  legs 1\n" +
		"total attributed delay 1.250000 over 1 delayed legs, 1 sampled queries\n"
	if got := Blame(traces); got != wantBlame {
		t.Fatalf("blame:\n%s\nwant:\n%s", got, wantBlame)
	}

	wantTop := "top 1 of 1 sampled queries:\n" +
		"  1. 0000000000000abc  phase during  latency 3.000000  legs 2  blamed 1.250000\n"
	if got := Top(traces, 5); got != wantTop {
		t.Fatalf("top:\n%s\nwant:\n%s", got, wantTop)
	}
}

// TestTraceReportsStable: repeated reconstruction and rendering of the
// same events is byte-identical — the renderers never iterate a map
// without sorting.
func TestTraceReportsStable(t *testing.T) {
	events := testTraceEvents()
	render := func() string {
		traces := BuildTraces(events)
		return CriticalPath(traces) + Blame(traces) + Top(traces, 10)
	}
	first := render()
	for i := 0; i < 20; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs:\n%s\nvs:\n%s", i, got, first)
		}
	}
	if !strings.Contains(first, "move r0#3") {
		t.Fatalf("reports never name the blamed move:\n%s", first)
	}
}

// TestTracerCountsSpansByOp: each op of the closed set counts against its
// own rex_trace_spans_total series, in traceOps order, and an op outside
// the set journals without counting.
func TestTracerCountsSpansByOp(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tr := NewTracer(rand.New(rand.NewSource(1)), 1, j)
	tr.AttachMetrics(reg)
	for i, op := range traceOps {
		if got := opIndex(op); got != i {
			t.Fatalf("opIndex(%q) = %d, want %d", op, got, i)
		}
		for k := 0; k <= i; k++ {
			tr.Emit(1, 0, TraceEvent{Op: op})
		}
	}
	tr.Emit(1, 0, TraceEvent{Op: "unknown"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 37 {
		t.Fatalf("journal has %d lines, want 37 (36 counted spans and the unknown one)", lines)
	}
	for i, op := range traceOps {
		if got := tr.m.spans[i].Value(); got != float64(i+1) {
			t.Errorf("op %s counted %g spans, want %d", op, got, i+1)
		}
	}
	var exp bytes.Buffer
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exp.String(), "unknown") {
		t.Errorf("an op outside the set reached the exposition:\n%s", exp.String())
	}
}
