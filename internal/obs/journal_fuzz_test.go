package obs

import (
	"strings"
	"testing"
)

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
		if len(again) != len(events) {
			t.Fatalf("roundtrip changed event count: %d -> %d", len(events), len(again))
		}
	})
}
