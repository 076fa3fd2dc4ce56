package lint

import (
	"go/token"
	"math"
	"testing"
)

func TestSatAddSaturates(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 1, 1},
		{lbSat, 1, lbSat},
		{lbSat - 1, 5, lbSat},
		{3, 7, 10},
		{1, math.MaxInt, lbSat},
	}
	for _, tc := range cases {
		if got := satAdd(tc.a, tc.b); got != tc.want {
			t.Errorf("satAdd(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestJoinVFStateLowerBounds pins the min-join with missing-means-zero
// normalization: a bound only present on one branch joins against the
// other branch's implicit zero, in both directions.
func TestJoinVFStateLowerBounds(t *testing.T) {
	tr := &Trace{Pos: token.Pos(1), What: "test"}
	a := newVFState()
	a.setLB("x", 2)
	a.setStreams("r", streamSet{"workload": tr})
	b := newVFState()
	b.setLB("x", 1)
	b.setLB("only", 3)
	b.setOrdered("k", tr)

	j := joinVFState(a, b)
	if got := j.getLB("x"); got != 1 {
		t.Errorf("lb(x) = %d, want min 1", got)
	}
	if got := j.getLB("only"); got != 0 {
		t.Errorf("lb(only) = %d, want 0 (missing in a means 0)", got)
	}
	if _, ok := j.streams["r"]["workload"]; !ok {
		t.Error("stream taint lost in join")
	}
	if j.ordered["k"] == nil {
		t.Error("order taint lost in join")
	}

	// A positive bound present on only one side must fall to the other
	// side's implicit zero.
	c := newVFState()
	c.setLB("p", 4)
	j2 := joinVFState(c, newVFState())
	if got := j2.getLB("p"); got != 0 {
		t.Errorf("lb(p) = %d, want 0 after joining with empty state", got)
	}

	// Join is idempotent on equal states.
	if !equalVFState(joinVFState(a, a), a) {
		t.Error("join(a, a) != a")
	}
}

// TestStreamTaintFlowsDownwardOnly pins the asymmetry that keeps struct
// values holding an RNG field from being treated as streams themselves: a
// tainted ancestor taints field reads, but a tainted field does not taint
// the containing value.
func TestStreamTaintFlowsDownwardOnly(t *testing.T) {
	tr := &Trace{Pos: token.Pos(1), What: "test"}
	st := newVFState()
	st.setStreams("v1.workload", streamSet{"workload": tr})
	st.setOrdered("v2.keys", tr)

	if str, _, _ := st.taintsAt("v1"); len(str) != 0 {
		t.Errorf("container inherited stream taint from its field: %v", str)
	}
	if str, _, _ := st.taintsAt("v1.workload"); len(str) != 1 {
		t.Error("exact-key stream taint lost")
	}
	st2 := newVFState()
	st2.setStreams("v1", streamSet{"drift": tr})
	if str, _, _ := st2.taintsAt("v1.anything"); len(str) != 1 {
		t.Error("field read did not inherit ancestor stream taint")
	}
	// Order taint keeps the two-way relation: a struct holding ordered
	// data is ordered.
	if _, ord, _ := st.taintsAt("v2"); ord == nil {
		t.Error("container did not inherit order taint from its field")
	}
}

// fuzzSummary decodes a bounded valueSummary from fuzz bytes: stream
// names and sink descriptions come from fixed pools so the lattice stays
// finite the way a real program's does.
func fuzzSummary(data []byte, params int) *valueSummary {
	pool := []string{"workload", "drift", "chaos", "trace"}
	sinks := []string{"", "journal write sink emit", "report sink render"}
	s := &valueSummary{
		paramSink:   make([]string, params),
		paramSinkTr: make([]*Trace, params),
	}
	tr := &Trace{Pos: token.Pos(1), What: "fuzz"}
	for i, b := range data {
		switch i % 3 {
		case 0:
			if b&1 == 1 {
				if s.returnStreams == nil {
					s.returnStreams = make(map[string]*Trace)
				}
				s.returnStreams[pool[int(b>>1)%len(pool)]] = tr
			}
		case 1:
			if b&1 == 1 {
				s.returnsOrdered = tr
			}
			s.returnsParam |= uint64(b >> 1)
		case 2:
			if params > 0 {
				p := int(b) % params
				if d := sinks[int(b>>2)%len(sinks)]; d != "" && s.paramSink[p] == "" {
					s.paramSink[p] = d
					s.paramSinkTr[p] = tr
				}
			}
		}
	}
	return s
}

// FuzzValueSummaryMerge pins the properties the interprocedural worklist
// depends on for termination on cyclic call graphs: merging is monotone
// (re-merging an already-folded summary reports no change), and cyclic
// merging of any finite summary set reaches a fixpoint within the lattice
// height instead of oscillating.
func FuzzValueSummaryMerge(f *testing.F) {
	f.Add([]byte{1, 3, 5, 7}, []byte{2, 4, 6, 8}, []byte{0xff, 0x0f, 0xf0, 0xaa})
	f.Add([]byte{}, []byte{1}, []byte{255, 255, 255, 255, 255, 255})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, []byte{9, 9, 9, 9}, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, d1, d2, d3 []byte) {
		const params = 3
		nodes := []*valueSummary{
			fuzzSummary(d1, params), fuzzSummary(d2, params), fuzzSummary(d3, params),
		}

		// Idempotence: a second identical merge must report no change.
		for _, src := range nodes {
			dst := fuzzSummary(nil, params)
			mergeValueSummary(dst, src)
			if mergeValueSummary(dst, src) {
				t.Fatal("second merge of the same summary reported a change")
			}
		}

		// Cyclic fixpoint: fold each summary into its cycle successor
		// until a full round changes nothing. The lattice height bounds
		// the rounds: stream names, param marks and sink slots are all
		// drawn from finite pools and every merge moves at least one of
		// them monotonically.
		rounds := 0
		for {
			changed := false
			for i := range nodes {
				if mergeValueSummary(nodes[(i+1)%len(nodes)], nodes[i]) {
					changed = true
				}
			}
			if !changed {
				break
			}
			rounds++
			if rounds > maxVFSweeps {
				t.Fatalf("cyclic merge did not converge after %d rounds", rounds)
			}
		}

		// At the fixpoint every node absorbed the cycle's union-joined
		// content. paramSink descriptions are first-wins rather than joins
		// (in the engine they are per-function constants that never differ
		// across merges of the same node), so only the union-valued
		// components must agree.
		for i := 1; i < len(nodes); i++ {
			a, b := nodes[0], nodes[i]
			if len(a.returnStreams) != len(b.returnStreams) {
				t.Fatalf("returnStreams diverge at fixpoint: %d vs %d", len(a.returnStreams), len(b.returnStreams))
			}
			for name := range a.returnStreams {
				if _, ok := b.returnStreams[name]; !ok {
					t.Fatalf("stream %q missing from node %d at fixpoint", name, i)
				}
			}
			if (a.returnsOrdered == nil) != (b.returnsOrdered == nil) || a.returnsParam != b.returnsParam {
				t.Fatal("ordered/param marks diverge at fixpoint")
			}
			for j := range a.paramSink {
				if (a.paramSink[j] == "") != (b.paramSink[j] == "") {
					t.Fatalf("sink slot %d set on one node but not the other at fixpoint", j)
				}
			}
		}
	})
}
