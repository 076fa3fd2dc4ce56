package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Trace-tree reconstruction and analysis over a journal's SpanTrace
// records, shared by cmd/rextrace and tests. Every renderer uses fixed
// six-decimal float formatting and sorted iteration only, so for a
// deterministic journal the reports are byte-identical across runs and
// GOMAXPROCS values — the same discipline as des.Report.Render.

// Span is one reconstructed span: the journal payload plus its end time,
// the control round its journal record carried, and resolved children.
type Span struct {
	TraceEvent
	End      float64
	Round    int
	Children []*Span // sorted by (Start, span ID)
}

// Duration is the span's extent in simulated seconds.
func (s *Span) Duration() float64 { return s.End - s.Start }

// child returns the first child with the given op, or nil.
func (s *Span) child(op string) *Span {
	for _, c := range s.Children {
		if c.Op == op {
			return c
		}
	}
	return nil
}

// Trace is one reconstructed span tree.
type Trace struct {
	ID    string
	Root  *Span   // parentless span (op "query" or "round"); nil if absent
	Spans []*Span // every span, journal order
}

// BuildTraces reconstructs span trees from a journal's SpanTrace records,
// in first-appearance order. A span ID emitted more than once (a retried
// move re-emits its span per attempt) keeps the last record. Spans whose
// parent never appears (a query still in flight at shutdown) are kept in
// Spans but dangle without a root path.
func BuildTraces(events []Event) []*Trace {
	type slot struct {
		trace *Trace
		idx   map[string]int // span ID → index into trace.Spans
	}
	slots := make(map[string]*slot)
	var (
		out   []*slot
		spans slab[Span]
	)
	for i := range events {
		ev := &events[i]
		if ev.Span != SpanTrace || ev.Trace == nil {
			continue
		}
		te := ev.Trace
		sl := slots[te.ID]
		if sl == nil {
			sl = &slot{trace: &Trace{ID: te.ID}, idx: make(map[string]int)}
			slots[te.ID] = sl
			out = append(out, sl)
		}
		sp := spans.next()
		*sp = Span{TraceEvent: *te, End: ev.T, Round: ev.Round}
		tr := sl.trace
		if j, dup := sl.idx[te.Span]; dup {
			tr.Spans[j] = sp
		} else {
			sl.idx[te.Span] = len(tr.Spans)
			tr.Spans = append(tr.Spans, sp)
		}
	}
	traces := make([]*Trace, len(out))
	var parent, kids []int // per span of the trace at hand: parent index, child count
	for k, sl := range out {
		tr := sl.trace
		n := len(tr.Spans)
		parent = slices.Grow(parent[:0], n)[:n]
		kids = slices.Grow(kids[:0], n)[:n]
		clear(kids)
		linked := 0
		for i, sp := range tr.Spans {
			parent[i] = -1
			if sp.Parent == "" {
				continue
			}
			if j, ok := sl.idx[sp.Parent]; ok {
				parent[i] = j
				kids[j]++
				linked++
			}
		}
		// Every child list is a window of one array sized for the trace.
		all := make([]*Span, linked)
		for i, sp := range tr.Spans {
			if n := kids[i]; n > 0 {
				sp.Children, all = all[:0:n], all[n:]
			}
		}
		for i, sp := range tr.Spans {
			switch j := parent[i]; {
			case j >= 0:
				p := tr.Spans[j]
				p.Children = append(p.Children, sp)
			case sp.Parent == "" && tr.Root == nil:
				tr.Root = sp
			}
		}
		for _, sp := range tr.Spans {
			if len(sp.Children) > 1 {
				slices.SortFunc(sp.Children, byStartThenID)
			}
		}
		traces[k] = tr
	}
	return traces
}

// byStartThenID orders sibling spans by (Start, span ID).
func byStartThenID(a, b *Span) int {
	if a.Start != b.Start {
		if a.Start < b.Start {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Span, b.Span)
}

// queryTraces filters for traces rooted at a query span.
func queryTraces(traces []*Trace) []*Trace {
	var out []*Trace
	for _, tr := range traces {
		if tr.Root != nil && tr.Root.Op == OpQuery {
			out = append(out, tr)
		}
	}
	return out
}

// blamedDelay sums the blocked_by delay across a trace's leg spans.
func blamedDelay(tr *Trace) float64 {
	total := 0.0
	for _, sp := range tr.Spans {
		if sp.Op == OpLeg && sp.Blocked != nil {
			total += sp.Blocked.Delay
		}
	}
	return total
}

// fmtRef renders a move reference as rROUND#SEQ.
func fmtRef(round, seq int) string { return fmt.Sprintf("r%d#%d", round, seq) }

// CriticalPath renders, per migration phase, the slowest sampled query's
// critical chain: the query root, its slowest leg with the leg's queue
// and service split, the leg's blame link, and the merge barrier wait.
func CriticalPath(traces []*Trace) string {
	var b strings.Builder
	qs := queryTraces(traces)
	for _, phase := range []string{"before", "during", "after"} {
		var worst *Trace
		for _, tr := range qs {
			if tr.Root.Mig != phase {
				continue
			}
			if worst == nil ||
				tr.Root.Duration() > worst.Root.Duration() ||
				(tr.Root.Duration() == worst.Root.Duration() && tr.ID < worst.ID) {
				worst = tr
			}
		}
		if worst == nil {
			fmt.Fprintf(&b, "phase %-6s  no sampled queries\n", phase)
			continue
		}
		root := worst.Root
		fmt.Fprintf(&b, "phase %-6s  trace %s  latency %.6f  arrive %.6f\n",
			phase, worst.ID, root.Duration(), root.Start)
		var slow *Span
		for _, c := range root.Children {
			if c.Op != OpLeg {
				continue
			}
			if slow == nil || c.End > slow.End || (c.End == slow.End && c.Span < slow.Span) {
				slow = c
			}
		}
		if slow != nil {
			fmt.Fprintf(&b, "  slowest leg: machine %d shard %d  span %.6f",
				slow.Machine, slow.Shard, slow.Duration())
			if q, svc := slow.child(OpQueue), slow.child(OpService); q != nil && svc != nil {
				fmt.Fprintf(&b, "  (queue %.6f service %.6f)", q.Duration(), svc.Duration())
			}
			b.WriteByte('\n')
			if bl := slow.Blocked; bl != nil {
				fmt.Fprintf(&b, "    blocked_by move %s  machine %d  %s %.6f\n",
					fmtRef(bl.Round, bl.Seq), bl.Machine, bl.Kind, bl.Delay)
			}
		}
		if m := root.child(OpMerge); m != nil {
			fmt.Fprintf(&b, "  merge wait %.6f behind machine %d\n", m.Duration(), m.Machine)
		}
	}
	return b.String()
}

// Blame aggregates the delay every sampled query leg attributed to a
// migration move, by move and by machine, largest totals first. Shard
// and destination come from the move's own trace span when the journal
// carries it.
func Blame(traces []*Trace) string {
	type moveAgg struct {
		round, seq  int
		delay       float64
		legs        int
		drag, queue int
	}
	type moveInfo struct{ shard, to int }
	moves := make(map[[2]int]*moveAgg)
	info := make(map[[2]int]moveInfo)
	machines := make(map[int]*moveAgg)
	totalDelay, totalLegs, queries := 0.0, 0, 0

	for _, tr := range traces {
		if tr.Root != nil && tr.Root.Op == OpQuery {
			queries++
		}
		for _, sp := range tr.Spans {
			if sp.Op == OpMove {
				info[[2]int{sp.Round, sp.Seq}] = moveInfo{shard: sp.Shard, to: sp.Machine}
				continue
			}
			if sp.Op != OpLeg || sp.Blocked == nil {
				continue
			}
			bl := sp.Blocked
			key := [2]int{bl.Round, bl.Seq}
			agg := moves[key]
			if agg == nil {
				agg = &moveAgg{round: bl.Round, seq: bl.Seq}
				moves[key] = agg
			}
			agg.delay += bl.Delay
			agg.legs++
			magg := machines[bl.Machine]
			if magg == nil {
				magg = &moveAgg{}
				machines[bl.Machine] = magg
			}
			magg.delay += bl.Delay
			magg.legs++
			if bl.Kind == BlameDrag {
				agg.drag++
			} else {
				agg.queue++
			}
			totalDelay += bl.Delay
			totalLegs++
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "blame by move:\n")
	keys := make([][2]int, 0, len(moves))
	for k := range moves {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, c := moves[keys[i]], moves[keys[j]]
		if a.delay != c.delay {
			return a.delay > c.delay
		}
		if a.round != c.round {
			return a.round < c.round
		}
		return a.seq < c.seq
	})
	for _, k := range keys {
		agg := moves[k]
		fmt.Fprintf(&b, "  move %-8s delay %.6f  legs %d (drag %d, queue %d)",
			fmtRef(agg.round, agg.seq), agg.delay, agg.legs, agg.drag, agg.queue)
		if mi, ok := info[k]; ok {
			fmt.Fprintf(&b, "  shard %d -> machine %d", mi.shard, mi.to)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "blame by machine:\n")
	mkeys := make([]int, 0, len(machines))
	for m := range machines {
		mkeys = append(mkeys, m)
	}
	sort.Slice(mkeys, func(i, j int) bool {
		a, c := machines[mkeys[i]], machines[mkeys[j]]
		if a.delay != c.delay {
			return a.delay > c.delay
		}
		return mkeys[i] < mkeys[j]
	})
	for _, m := range mkeys {
		agg := machines[m]
		fmt.Fprintf(&b, "  machine %-4d delay %.6f  legs %d\n", m, agg.delay, agg.legs)
	}
	fmt.Fprintf(&b, "total attributed delay %.6f over %d delayed legs, %d sampled queries\n",
		totalDelay, totalLegs, queries)
	return b.String()
}

// Top ranks the n slowest sampled queries.
func Top(traces []*Trace, n int) string {
	qs := queryTraces(traces)
	sort.Slice(qs, func(i, j int) bool {
		a, b := qs[i].Root.Duration(), qs[j].Root.Duration()
		if a != b {
			return a > b
		}
		return qs[i].ID < qs[j].ID
	})
	if n > len(qs) {
		n = len(qs)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "top %d of %d sampled queries:\n", n, len(qs))
	for i := 0; i < n; i++ {
		tr := qs[i]
		legs := 0
		for _, c := range tr.Root.Children {
			if c.Op == OpLeg {
				legs++
			}
		}
		fmt.Fprintf(&b, "%3d. %s  phase %-6s  latency %.6f  legs %d  blamed %.6f\n",
			i+1, tr.ID, tr.Root.Mig, tr.Root.Duration(), legs, blamedDelay(tr))
	}
	return b.String()
}
