package obs_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"rexchange/internal/des"
	"rexchange/internal/obs"
)

// plainStrings are strings the fast path takes as they are: the IDs and
// closed vocabularies a journal is made of, the empty string, and one of
// each printable ASCII class.
var plainStrings = []string{
	"", "00000000000000ab", "9e3779b97f4a7c15", obs.SpanTrace, obs.SpanMove, obs.PhaseEnd,
	obs.OutcomeAborted, obs.OpService, obs.BlameDrag, "during", "bogus", "a <b> & 'c' / {d}", "\x7f",
}

// plainOut replaces most strings reachable from v with plain ones, so
// whole lines of every shape reach the fast path, not only the few whose
// every string fillRandom happened to draw plain.
func plainOut(r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		if r.Intn(8) != 0 {
			v.SetString(plainStrings[r.Intn(len(plainStrings))])
		}
	case reflect.Pointer:
		if !v.IsNil() {
			plainOut(r, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			plainOut(r, v.Field(i))
		}
	}
}

// campaignJournal is the journal of a small solve campaign that traces
// every query: the line shapes the simulator and controller really write.
func campaignJournal(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	cfg := des.DefaultCampaignConfig()
	cfg.Machines, cfg.Shards, cfg.Rounds = 16, 160, 4
	cfg.Rate, cfg.Iterations = 60, 120
	cfg.Sim.Window = 5
	cfg.Sim.DriftSigma = 0.4
	cfg.Sim.TraceSample = 1
	cfg.Journal = obs.NewJournal(&buf)
	if _, err := des.RunCampaign(cfg, "solve"); err != nil {
		tb.Fatal(err)
	}
	if err := cfg.Journal.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeEventMatchesJSON holds the fast-path decoder to json.Unmarshal:
// every line it takes must decode to json's Event, field for field, floats
// by their bits. Random events cover every field and both sides of every
// rule; a real campaign journal must go through the fast path whole, so an
// encoder change that sends lines to the fallback fails here rather than
// silently giving back the read side's speed.
func TestDecodeEventMatchesJSON(t *testing.T) {
	check := func(line []byte) bool {
		t.Helper()
		got, ok := obs.DecodeLine(line)
		if !ok {
			return false
		}
		var want obs.Event
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("fast path took a line json refuses (%v):\n%s", err, line)
		}
		if d := obs.EventDiff(got, want); d != "" {
			t.Fatalf("fast path and json differ at %s:\n%s", d, line)
		}
		return true
	}

	r := rand.New(rand.NewSource(3))
	var line []byte
	fast, shapes := 0, map[[4]bool]bool{}
	const n = 20000
	for i := 0; i < n; i++ {
		var ev obs.Event
		obs.FillRandom(t, r, "Event", reflect.ValueOf(&ev).Elem())
		plainOut(r, reflect.ValueOf(&ev).Elem())
		var err error
		if line, err = obs.AppendEvent(line[:0], &ev); err != nil {
			t.Fatal(err)
		}
		if check(line) {
			fast++
			shapes[[4]bool{ev.Move != nil, ev.Sim != nil, ev.Trace != nil, ev.Trace != nil && ev.Trace.Blocked != nil}] = true
		}
	}
	if fast < n/10 || fast == n || len(shapes) < 12 {
		t.Fatalf("fast path took %d of %d random lines in %d payload shapes; the test no longer covers both sides", fast, n, len(shapes))
	}

	journal := campaignJournal(t)
	lines := bytes.Split(bytes.TrimSuffix(journal, []byte("\n")), []byte("\n"))
	kinds := map[string]int{}
	for i, l := range lines {
		if !check(l) {
			t.Fatalf("campaign journal line %d left the fast path:\n%s", i+1, l)
		}
		ev, _ := obs.DecodeLine(l)
		kinds[ev.Span]++
	}
	for _, k := range []string{obs.SpanRound, obs.SpanSolve, obs.SpanMove, obs.SpanSim, obs.SpanTrace} {
		if kinds[k] == 0 {
			t.Fatalf("campaign journal has no %s span (%v); it no longer stands for a real run", k, kinds)
		}
	}
	t.Logf("random: %d of %d lines on the fast path, %d payload shapes; campaign: %d lines %v", fast, n, len(shapes), len(lines), kinds)
}

// BenchmarkReadJournal is ReadJournal over a traced campaign's journal
// held in memory.
func BenchmarkReadJournal(b *testing.B) {
	journal := campaignJournal(b)
	b.SetBytes(int64(len(journal)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obs.ReadJournal(bytes.NewReader(journal)); err != nil {
			b.Fatal(err)
		}
	}
}
