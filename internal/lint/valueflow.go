package lint

// Interprocedural value-flow/taint engine: per-function def-use chains over
// the v2 CFG (cfg.go, dataflow.go), with taint lattices propagated bottom-up
// through call-site summaries by the same fixpoint, in the same Summary, as
// v3's effect masks (summary.go), including "via a → b" blame traces. Three
// analyzers draw on it:
//
//   - streamflow: a value returned by a //rexlint:streamsource function
//     (rng.Partitioned.Stream) carries its stream name as taint. A function
//     may draw from or pass along a stream only if its doc comment declares
//     ownership with //rexlint:stream <name...>; function literals inherit
//     the enclosing declaration. Stream names must be named constants.
//   - detflow: values whose order derives from map iteration, maps.Keys/
//     Values/All, or multi-arm select receives carry order taint until
//     sorted (a sort./slices. call) or passed through a //rexlint:canonical
//     function. Order-tainted values must not reach //rexlint:detsink
//     functions (journal writes, Prometheus exposition, fixed-format
//     reports), directly or through callees.
//   - nonneg: integer struct fields annotated //rexlint:nonneg must be
//     provably non-negative on every path: decrements are only legal when
//     the lower bound is positive, //rexlint:requires f>=k states a callee's
//     entry precondition that callers must discharge, and callee summaries
//     carry a guaranteed minimum net delta folded at call sites.
//
// Soundness boundaries (deliberate, documented): taint does not flow
// through struct-field stores across functions (field-mediated flows stay
// covered by the dynamic byte-diff tests), closures do not inherit taint of
// captured variables, and counter writes through index expressions
// (s.machines[i].n--) are not tracked because exprKey cannot
// canonicalize them. Within those boundaries every lattice is finite and
// every merge monotone, so the fixpoint terminates (FuzzValueSummaryMerge
// pins this on cyclic call graphs).

import (
	"go/token"
	"strings"
)

// vfKind tags a finding with the analyzer it belongs to.
type vfKind uint8

const (
	vfStream vfKind = iota
	vfDet
	vfNonneg
)

// vfFinding is one engine finding, routed to streamflow/detflow/nonneg.
type vfFinding struct {
	kind vfKind
	pos  token.Pos
	msg  string
}

// lbSat bounds every lower-bound value so decreasing chains are finite and
// the dataflow fixpoint terminates regardless of loop structure.
const lbSat = 64

// satAdd adds with saturation at ±lbSat.
func satAdd(a, b int) int {
	s := a + b
	if s > lbSat {
		return lbSat
	}
	if s < -lbSat {
		return -lbSat
	}
	return s
}

// counterEffect is the nonneg summary of one annotated receiver field.
type counterEffect struct {
	// Req is the declared entry precondition (//rexlint:requires f>=k).
	Req int
	// Delta is the guaranteed minimum net change over any terminating
	// path, valid only when Known.
	Known bool
	Delta int
}

// valueSummary is the value-flow summary of one function node.
type valueSummary struct {
	// returnStreams maps stream names that may taint a return value to
	// their provenance.
	returnStreams map[string]*Trace
	// returnsOrdered is non-nil when a return value may carry map/select
	// ordering.
	returnsOrdered *Trace
	// returnsParam is a bitmask of parameters whose order taint flows
	// through to a return value (identity-style helpers).
	returnsParam uint64
	// paramSink describes, per parameter, the deterministic-output sink the
	// parameter reaches inside the function ("" = none); paramSinkTr is the
	// matching provenance.
	paramSink   []string
	paramSinkTr []*Trace
	// counters holds the nonneg effect per annotated receiver field name.
	counters map[string]*counterEffect
}

// newValueSummary returns n's empty value-flow summary, one sink slot per
// parameter.
func newValueSummary(n *FuncNode) *valueSummary {
	return &valueSummary{
		paramSink:   make([]string, len(n.Params)),
		paramSinkTr: make([]*Trace, len(n.Params)),
	}
}

// mergeValueSummary folds src into dst (union / min joins, all monotone:
// stream sets and sink marks only grow, Known only falls, Delta only
// drops). Reports whether dst changed.
func mergeValueSummary(dst, src *valueSummary) bool {
	changed := false
	for name, tr := range src.returnStreams {
		if _, ok := dst.returnStreams[name]; !ok {
			if dst.returnStreams == nil {
				dst.returnStreams = make(map[string]*Trace)
			}
			dst.returnStreams[name] = tr
			changed = true
		}
	}
	if src.returnsOrdered != nil && dst.returnsOrdered == nil {
		dst.returnsOrdered = src.returnsOrdered
		changed = true
	}
	if src.returnsParam&^dst.returnsParam != 0 {
		dst.returnsParam |= src.returnsParam
		changed = true
	}
	for i, d := range src.paramSink {
		if d != "" && i < len(dst.paramSink) && dst.paramSink[i] == "" {
			dst.paramSink[i] = d
			dst.paramSinkTr[i] = src.paramSinkTr[i]
			changed = true
		}
	}
	for f, ce := range src.counters {
		de, ok := dst.counters[f]
		if !ok {
			if dst.counters == nil {
				dst.counters = make(map[string]*counterEffect)
			}
			cp := *ce
			dst.counters[f] = &cp
			changed = true
			continue
		}
		if de.Known && !ce.Known {
			de.Known = false
			changed = true
		}
		if de.Known && ce.Delta < de.Delta {
			de.Delta = ce.Delta
			changed = true
		}
	}
	return changed
}

// streamSet maps stream names to their provenance.
type streamSet map[string]*Trace

// vfState is the per-program-point fact: which value paths carry which
// stream taints, which carry nondeterministic ordering, which carry
// parameter marks, and the proven lower bound of each tracked counter.
// Missing lb keys mean 0 (absolute mode: the declared invariant floor;
// delta mode: net offset zero), so states normalize by dropping zeros.
type vfState struct {
	streams map[string]streamSet
	ordered map[string]*Trace
	pmark   map[string]uint64
	lb      map[string]int
	// cKill marks counters whose delta became untrackable (delta mode
	// only): an absolute assignment or an unknown callee effect.
	cKill map[string]bool
}

func newVFState() *vfState { return &vfState{} }

func (s *vfState) clone() *vfState {
	c := &vfState{}
	if len(s.streams) > 0 {
		c.streams = make(map[string]streamSet, len(s.streams))
		for k, v := range s.streams {
			set := make(streamSet, len(v))
			for n, tr := range v {
				set[n] = tr
			}
			c.streams[k] = set
		}
	}
	if len(s.ordered) > 0 {
		c.ordered = make(map[string]*Trace, len(s.ordered))
		for k, v := range s.ordered {
			c.ordered[k] = v
		}
	}
	if len(s.pmark) > 0 {
		c.pmark = make(map[string]uint64, len(s.pmark))
		for k, v := range s.pmark {
			c.pmark[k] = v
		}
	}
	if len(s.lb) > 0 {
		c.lb = make(map[string]int, len(s.lb))
		for k, v := range s.lb {
			c.lb[k] = v
		}
	}
	if len(s.cKill) > 0 {
		c.cKill = make(map[string]bool, len(s.cKill))
		for k := range s.cKill {
			c.cKill[k] = true
		}
	}
	return c
}

func (s *vfState) getLB(key string) int { return s.lb[key] }

func (s *vfState) setLB(key string, v int) {
	if v == 0 {
		delete(s.lb, key)
		return
	}
	if s.lb == nil {
		s.lb = make(map[string]int)
	}
	s.lb[key] = v
}

func (s *vfState) setStreams(key string, set streamSet) {
	if len(set) == 0 {
		delete(s.streams, key)
		return
	}
	if s.streams == nil {
		s.streams = make(map[string]streamSet)
	}
	s.streams[key] = set
}

func (s *vfState) setOrdered(key string, tr *Trace) {
	if tr == nil {
		delete(s.ordered, key)
		return
	}
	if s.ordered == nil {
		s.ordered = make(map[string]*Trace)
	}
	s.ordered[key] = tr
}

func (s *vfState) setPmark(key string, bits uint64) {
	if bits == 0 {
		delete(s.pmark, key)
		return
	}
	if s.pmark == nil {
		s.pmark = make(map[string]uint64)
	}
	s.pmark[key] = bits
}

func (s *vfState) kill(key string) {
	if s.cKill == nil {
		s.cKill = make(map[string]bool)
	}
	s.cKill[key] = true
}

// taintsAt looks up the taint of a path key. Order taint and parameter
// marks consider ancestors and descendants both ways (`ev` is ordered when
// `ev.spans` is, and vice versa). Stream taint only flows downward — exact
// key or a tainted ancestor — because a struct that stores an RNG in a
// field is not itself a stream: passing the struct along is not a
// hand-off, only passing the *rand.Rand is.
func (s *vfState) taintsAt(key string) (streamSet, *Trace, uint64) {
	var str streamSet
	var ord *Trace
	var marks uint64
	related := func(k string) bool {
		return k == key || strings.HasPrefix(k, key+".") || strings.HasPrefix(key, k+".")
	}
	for k, set := range s.streams {
		if k != key && !strings.HasPrefix(key, k+".") {
			continue
		}
		if str == nil {
			str = make(streamSet)
		}
		for n, tr := range set {
			if _, ok := str[n]; !ok {
				str[n] = tr
			}
		}
	}
	for k, tr := range s.ordered {
		if related(k) && ord == nil {
			ord = tr
		}
	}
	for k, bits := range s.pmark {
		if related(k) {
			marks |= bits
		}
	}
	return str, ord, marks
}

// equalVFState compares lattice content (trace decoration excluded).
func equalVFState(a, b *vfState) bool {
	if len(a.streams) != len(b.streams) || len(a.ordered) != len(b.ordered) ||
		len(a.pmark) != len(b.pmark) || len(a.lb) != len(b.lb) || len(a.cKill) != len(b.cKill) {
		return false
	}
	for k, av := range a.streams {
		bv, ok := b.streams[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for n := range av {
			if _, ok := bv[n]; !ok {
				return false
			}
		}
	}
	for k := range a.ordered {
		if _, ok := b.ordered[k]; !ok {
			return false
		}
	}
	for k, av := range a.pmark {
		if b.pmark[k] != av {
			return false
		}
	}
	for k, av := range a.lb {
		if bv, ok := b.lb[k]; !ok || bv != av {
			return false
		}
	}
	for k := range a.cKill {
		if !b.cKill[k] {
			return false
		}
	}
	return true
}

// joinVFState unions taints and marks, mins lower bounds (missing = 0),
// and unions counter kills.
func joinVFState(a, b *vfState) *vfState {
	out := a.clone()
	for k, set := range b.streams {
		cur := out.streams[k]
		if cur == nil {
			cur = make(streamSet, len(set))
			out.setStreams(k, cur)
		}
		for n, tr := range set {
			if _, ok := cur[n]; !ok {
				cur[n] = tr
			}
		}
	}
	for k, tr := range b.ordered {
		if _, ok := out.ordered[k]; !ok {
			out.setOrdered(k, tr)
		}
	}
	for k, bits := range b.pmark {
		out.setPmark(k, out.pmark[k]|bits)
	}
	for k, av := range out.lb {
		if bv := b.lb[k]; bv < av { // missing keys default to 0
			out.setLB(k, bv)
		}
	}
	for k, bv := range b.lb {
		if _, ok := out.lb[k]; !ok && bv < 0 {
			out.setLB(k, bv)
		}
	}
	for k := range b.cKill {
		out.kill(k)
	}
	return out
}
