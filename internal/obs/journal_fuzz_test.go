package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// refReadJournal is the json-only reader: bufio lines, json.Unmarshal
// each, ReadJournal's checks and error wording. It is the oracle
// ReadJournal, fast path and fallback together, is held to.
func refReadJournal(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(text, &ev); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
		}
		if ev.Span == "" || ev.Phase == "" {
			return nil, fmt.Errorf("obs: journal line %d: missing span/phase", line)
		}
		switch ev.Span {
		case SpanRound, SpanSolve, SpanMove, SpanSim, SpanTrace:
		default:
			return nil, fmt.Errorf("obs: journal line %d: unknown span kind %q", line, ev.Span)
		}
		if ev.Span == SpanTrace && ev.Trace == nil {
			return nil, fmt.Errorf("obs: journal line %d: trace span without trace payload", line)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: journal line %d: %w", line+1, err)
	}
	return out, nil
}

// eventDiff names the first field in which a and b differ, or returns "".
// Floats are compared by their bits: reflect.DeepEqual takes -0 for 0,
// and the journal writes "t":-0.
func eventDiff(a, b Event) string {
	return valueDiff("Event", reflect.ValueOf(a), reflect.ValueOf(b))
}

func valueDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if x, y := a.Float(), b.Float(); math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Sprintf("%s: %v (bits %#x) vs %v (bits %#x)", path, x, math.Float64bits(x), y, math.Float64bits(y))
		}
	case reflect.Int:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil %t vs nil %t", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		return valueDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := valueDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	default:
		return fmt.Sprintf("%s: no comparison for kind %s; add one", path, a.Kind())
	}
	return ""
}

// journalDiff is eventDiff over two event lists.
func journalDiff(a, b []Event) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d events vs %d", len(a), len(b))
	}
	for i := range a {
		if d := eventDiff(a[i], b[i]); d != "" {
			return fmt.Sprintf("event %d: %s", i, d)
		}
	}
	return ""
}

// FuzzReadJournal: the journal reader faces files truncated mid-write,
// hand-edited, or produced by future span kinds. Whatever the bytes, it
// must either parse or fail with a line-numbered "obs:" error — never
// panic — and a successful parse must survive an emit/re-read roundtrip.
func FuzzReadJournal(f *testing.F) {
	f.Add("{\"t\":1,\"span\":\"round\",\"phase\":\"begin\",\"round\":0}\n")
	f.Add("{\"t\":2,\"span\":\"trace\",\"phase\":\"end\",\"round\":1,\"trace\":{\"id\":\"ab\",\"sid\":\"cd\",\"op\":\"query\",\"start\":1,\"machine\":-1,\"shard\":-1,\"seq\":-1}}\n")
	f.Add("{\"t\":2,\"span\":\"trace\",\"phase\":\"end\",\"round\":1}\n") // payload missing
	f.Add("{\"t\":3,\"span\":\"warp\",\"phase\":\"end\",\"round\":0}\n")  // unknown kind
	f.Add("{\"t\":1,\"span\":\"move\",\"phase\":\"beg")                   // truncated mid-line
	f.Add("not json at all\n")
	f.Add("\n\n\n")
	f.Add("{\"t\":1}\n{\"t\":2}\n")
	f.Add("{\"t\":1,\"span\":\"round\",\"phase\":\"begin\",\"round\":0}\n" + strings.Repeat("x", 1<<20+1) + "\n") // record over the 1 MiB cap
	f.Fuzz(func(t *testing.T, data string) {
		events, err := ReadJournal(strings.NewReader(data))
		if err != nil {
			msg := err.Error()
			if !strings.HasPrefix(msg, "obs: ") {
				t.Fatalf("error without obs prefix: %q", msg)
			}
			if !strings.Contains(msg, "line ") {
				t.Fatalf("parse error without a line number: %q", msg)
			}
			return
		}
		for _, ev := range events {
			if ev.Span == SpanTrace && ev.Trace == nil {
				t.Fatalf("reader admitted a trace span without payload: %+v", ev)
			}
		}
		var b strings.Builder
		j := NewJournal(&b)
		for _, ev := range events {
			j.Emit(ev)
		}
		if err := j.Err(); err != nil {
			t.Fatalf("re-emit of parsed events failed: %v", err)
		}
		again, err := ReadJournal(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-read of re-emitted journal failed: %v", err)
		}
		if d := journalDiff(events, again); d != "" {
			t.Fatalf("roundtrip changed the events: %s", d)
		}
	})
}

// FuzzReadJournalMatchesJSON holds ReadJournal, fast path and fallback
// together, to refReadJournal: for any input, the same events bit for bit
// or the same error string.
func FuzzReadJournalMatchesJSON(f *testing.F) {
	for _, ev := range []Event{fullEvent(),
		{T: math.Copysign(0, -1), Span: SpanSim, Phase: PhaseEnd, Round: 3,
			Sim: &SimEvent{Window: 3, P50: 1.25e-10, P99: 999999999999999900000, P999: -3e22}},
		{T: 23, Span: SpanRound, Phase: PhaseEnd, Round: 3, Outcome: OutcomeErr, Err: "plain message"},
		{T: 23, Span: SpanRound, Phase: PhaseEnd, Round: 3, Outcome: OutcomeErr, Err: `back\slash`},
		{T: 23, Span: SpanRound, Phase: PhaseEnd, Round: 3, Outcome: OutcomeErr, Err: "solve \"m<3>\":\n\xff é"},
	} {
		line, err := appendEvent(nil, &ev, &floatMemo{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(line) + "\n")
	}
	f.Add("{\"t\":1,\"span\":\"round\",\"phase\":\"begin\",\"round\":0}\r\n")          // CRLF
	f.Add("{\"t\":1, \"span\":\"round\",\"phase\":\"begin\",\"round\":0}\n")           // whitespace
	f.Add("{\"span\":\"round\",\"t\":1,\"phase\":\"begin\",\"round\":0}\n")            // reordered
	f.Add("{\"t\":1,\"span\":\"move\",\"phase\":\"end\",\"round\":0,\"move\":null}\n") // null payload
	// Numbers on both sides of the JSON grammar, and of what strconv
	// alone would read: in a float member and in an int member.
	for _, num := range []string{"-0", "0.5", "1E+2", "1e-400", "1e400", "01", "-", "1.", ".5", "1e", "+1",
		"1_0", "Inf", "NaN", "0x1p-2", "1.5", "99999999999999999999"} {
		f.Add("{\"t\":" + num + ",\"span\":\"round\",\"phase\":\"begin\",\"round\":0}\n")
		f.Add("{\"t\":1,\"span\":\"round\",\"phase\":\"begin\",\"round\":" + num + "}\n")
	}
	f.Add("{\"t\":1,\"span\":\"round\",\"phase\":\"begin\",\"round\":0}trailing\n")
	f.Add("{\"t\":2,\"span\":\"trace\",\"phase\":\"end\",\"round\":1}\n")
	f.Add("{\"t\":1,\"span\":\"move\",\"phase\":\"beg")
	f.Fuzz(func(t *testing.T, data string) {
		got, gotErr := ReadJournal(strings.NewReader(data))
		want, wantErr := refReadJournal(strings.NewReader(data))
		if (gotErr != nil) != (wantErr != nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("error %v, oracle error %v", gotErr, wantErr)
		}
		if d := journalDiff(got, want); d != "" {
			t.Fatalf("events differ from the oracle's: %s", d)
		}
	})
}
