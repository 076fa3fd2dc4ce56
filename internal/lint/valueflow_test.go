package lint

import (
	"go/token"
	"testing"
)

// TestStreamTaintFlowsDownwardOnly pins the asymmetry that keeps struct
// values holding an RNG field from being treated as streams themselves: a
// tainted ancestor taints field reads, but a tainted field does not taint
// the containing value.
func TestStreamTaintFlowsDownwardOnly(t *testing.T) {
	tr := &Trace{Pos: token.Pos(1), What: "test"}
	st := newVFState()
	st.setTaint("v1.workload", taint{streams: map[string]*Trace{"workload": tr}})
	st.setTaint("v2.keys", taint{ord: tr})

	if str := st.taintsAt("v1").streams; len(str) != 0 {
		t.Errorf("container inherited stream taint from its field: %v", str)
	}
	if str := st.taintsAt("v1.workload").streams; len(str) != 1 {
		t.Error("exact-key stream taint lost")
	}
	st2 := newVFState()
	st2.setTaint("v1", taint{streams: map[string]*Trace{"drift": tr}})
	if str := st2.taintsAt("v1.anything").streams; len(str) != 1 {
		t.Error("field read did not inherit ancestor stream taint")
	}
	// Order taint keeps the two-way relation: a struct holding ordered
	// data is ordered.
	if st.taintsAt("v2").ord == nil {
		t.Error("container did not inherit order taint from its field")
	}
}

// fuzzSummary decodes a bounded valueSummary from fuzz bytes: stream
// names and sink descriptions come from fixed pools so the lattice stays
// finite the way a real program's does.
func fuzzSummary(data []byte, params int) *valueSummary {
	pool := []string{"workload", "drift", "chaos", "trace"}
	sinks := []string{"", "journal write sink emit", "report sink render"}
	s := &valueSummary{paramSink: make([]string, params)}
	tr := &Trace{Pos: token.Pos(1), What: "fuzz"}
	for i, b := range data {
		switch i % 3 {
		case 0:
			if b&1 == 1 {
				name := pool[int(b>>1)%len(pool)]
				s.ret = s.ret.union(taint{streams: map[string]*Trace{name: tr}})
			}
		case 1:
			if b&1 == 1 {
				s.ret.ord = tr
			}
			s.ret.marks |= uint64(b >> 1)
		case 2:
			if params > 0 {
				p := int(b) % params
				if d := sinks[int(b>>2)%len(sinks)]; d != "" && s.paramSink[p] == "" {
					s.paramSink[p] = d
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
			if !sameTaint(a.ret, b.ret) {
				t.Fatalf("return taint of node %d diverges at fixpoint", i)
			}
			for j := range a.paramSink {
				if (a.paramSink[j] == "") != (b.paramSink[j] == "") {
					t.Fatalf("sink slot %d set on one node but not the other at fixpoint", j)
				}
			}
		}
	})
}

// TestTaintsAtTieBreak pins which trace a lookup names when several
// related keys carry the same fact with different provenance: the
// smallest key's trace wins, on every fresh state, whatever order the
// taint map iterates in.
func TestTaintsAtTieBreak(t *testing.T) {
	mapTr := &Trace{Pos: token.Pos(1), What: "map iteration order"}
	selTr := &Trace{Pos: token.Pos(2), What: "select arm completion order"}
	outer := &Trace{Pos: token.Pos(3), What: "Stream(\"workload\")"}
	inner := &Trace{Pos: token.Pos(4), What: "Stream(\"workload\") via field"}
	for i := 0; i < 100; i++ {
		st := newVFState()
		st.setTaint("v.b", taint{ord: selTr})
		st.setTaint("v.x", taint{streams: map[string]*Trace{"workload": inner}})
		st.setTaint("v.a", taint{ord: mapTr})
		st.setTaint("v", taint{streams: map[string]*Trace{"workload": outer}})

		if got := st.taintsAt("v").ord; got != mapTr {
			t.Fatalf("state %d: ord of v = %q, want %q (from v.a, the smallest key)", i, got.What, mapTr.What)
		}
		if got := st.taintsAt("v.x").streams["workload"]; got != outer {
			t.Fatalf("state %d: stream trace of v.x = %q, want %q (from v, the smallest key)", i, got.What, outer.What)
		}
	}
}
