package lint

// Interprocedural value-flow/taint engine: per-function def-use chains over
// the v2 CFG (cfg.go, dataflow.go). Each value path carries one taint
// (stream names, order, parameter marks), propagated bottom-up through
// call-site summaries by the same fixpoint, in the same Summary, as v3's
// effect masks (summary.go), including "via a → b" blame traces. Where
// several related paths carry the same fact, the smallest path's trace is
// the one a message names. Two analyzers draw on it:
//
//   - streamflow: a value returned by a //rexlint:streamsource function
//     (rng.Partitioned.Stream) carries its stream name as taint. A function
//     may draw from or pass along a stream only if its doc comment declares
//     ownership with //rexlint:stream <name...>; function literals inherit
//     the enclosing declaration. Stream names must be named constants.
//   - detflow: values whose order derives from map iteration, maps.Keys/
//     Values/All, or multi-arm select receives carry order taint until
//     sorted (a sort./slices. call). Order-tainted values must not reach
//     //rexlint:detsink functions (journal writes, Prometheus exposition,
//     fixed-format reports), directly or through callees.
//
// Soundness boundaries (deliberate, documented): taint does not flow
// through struct-field stores across functions (field-mediated flows stay
// covered by the dynamic byte-diff tests) and closures do not inherit
// taint of captured variables. Within those boundaries every lattice is
// finite and every merge monotone, so the fixpoint terminates
// (FuzzValueSummaryMerge pins this on cyclic call graphs).

import (
	"go/token"
	"maps"
	"slices"
	"strings"
)

// vfKind tags a finding with the analyzer it belongs to.
type vfKind uint8

const (
	vfStream vfKind = iota
	vfDet
)

// vfFinding is one engine finding, routed to streamflow or detflow.
type vfFinding struct {
	kind vfKind
	pos  token.Pos
	msg  string
}

// valueSummary is the value-flow summary of one function node.
type valueSummary struct {
	// ret is the taint a return value may carry; its marks are the
	// parameters whose taint flows through to a return value
	// (identity-style helpers).
	ret taint
	// paramSink describes, per parameter, the deterministic-output sink the
	// parameter reaches inside the function ("" = none).
	paramSink []string
}

// newValueSummary returns n's empty value-flow summary, one sink slot per
// parameter.
func newValueSummary(n *FuncNode) *valueSummary {
	return &valueSummary{paramSink: make([]string, len(n.Params))}
}

// mergeValueSummary folds src into dst (union joins, all monotone: taints
// and sink marks only grow). Reports whether dst changed.
func mergeValueSummary(dst, src *valueSummary) bool {
	changed := false
	if u := dst.ret.union(src.ret); !sameTaint(u, dst.ret) {
		dst.ret = u
		changed = true
	}
	for i, d := range src.paramSink {
		if d != "" && i < len(dst.paramSink) && dst.paramSink[i] == "" {
			dst.paramSink[i] = d
			changed = true
		}
	}
	return changed
}

// taint is what one value path carries: the RNG stream names that may
// taint it, the nondeterministic ordering it derives from (nil = none) and
// the bitmask of function parameters it derives from (how sink obligations
// propagate bottom-up). Traces are provenance for blame chains. A taint's
// stream map is never written after it is built, so taints share it.
type taint struct {
	streams map[string]*Trace
	ord     *Trace
	marks   uint64
}

func (t taint) empty() bool { return len(t.streams) == 0 && t.ord == nil && t.marks == 0 }

// union joins u into t; where both carry a stream name or an order, t's
// trace wins.
func (t taint) union(u taint) taint {
	switch {
	case len(t.streams) == 0:
		t.streams = u.streams
	case len(u.streams) > 0:
		s := maps.Clone(u.streams)
		maps.Copy(s, t.streams)
		t.streams = s
	}
	if t.ord == nil {
		t.ord = u.ord
	}
	t.marks |= u.marks
	return t
}

// sameTaint compares lattice content (trace decoration excluded).
func sameTaint(a, b taint) bool {
	if (a.ord == nil) != (b.ord == nil) || a.marks != b.marks || len(a.streams) != len(b.streams) {
		return false
	}
	for n := range a.streams {
		if _, ok := b.streams[n]; !ok {
			return false
		}
	}
	return true
}

// vfState is the per-program-point fact: the taint of each value path.
// setTaint drops empty taints, so equal states hold the same keys.
type vfState struct {
	taints map[string]taint
}

func newVFState() *vfState { return &vfState{} }

func (s *vfState) clone() *vfState { return &vfState{taints: maps.Clone(s.taints)} }

func (s *vfState) setTaint(key string, t taint) {
	if t.empty() {
		delete(s.taints, key)
		return
	}
	if s.taints == nil {
		s.taints = make(map[string]taint)
	}
	s.taints[key] = t
}

// taintsAt looks up the taint of a path key. Order taint and parameter
// marks consider ancestors and descendants both ways (`ev` is ordered when
// `ev.spans` is, and vice versa). Stream taint only flows downward — exact
// key or a tainted ancestor — because a struct that stores an RNG in a
// field is not itself a stream: passing the struct along is not a
// hand-off, only passing the *rand.Rand is. The related keys fold in
// sorted order, so the smallest key's trace wins and a message does not
// depend on map iteration order.
func (s *vfState) taintsAt(key string) taint {
	var related []string
	for k := range s.taints {
		if k == key || strings.HasPrefix(k, key+".") || strings.HasPrefix(key, k+".") {
			related = append(related, k)
		}
	}
	slices.Sort(related)
	var out taint
	for _, k := range related {
		t := s.taints[k]
		if len(k) > len(key) {
			t.streams = nil // a descendant
		}
		out = out.union(t)
	}
	return out
}

// equalVFState compares lattice content (trace decoration excluded).
func equalVFState(a, b *vfState) bool {
	if len(a.taints) != len(b.taints) {
		return false
	}
	for k, at := range a.taints {
		if bt, ok := b.taints[k]; !ok || !sameTaint(at, bt) {
			return false
		}
	}
	return true
}

// joinVFState unions taints.
func joinVFState(a, b *vfState) *vfState {
	out := a.clone()
	for k, t := range b.taints {
		out.setTaint(k, out.taints[k].union(t))
	}
	return out
}
