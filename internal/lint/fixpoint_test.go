package lint

import (
	"fmt"
	"testing"
)

// sweep is the reference driver: update every node in node order until a
// whole pass changes nothing. It needs no callers index, so a summary the
// worklist's index forgets to carry shows up as a difference.
func sweep(p *Program) {
	for changed := true; changed; {
		changed = false
		for _, n := range p.graph.nodes {
			if p.updateEffects(n) {
				changed = true
			}
		}
	}
}

// summaryFacts renders every lattice fact of a summary in a canonical
// form. Traces are left out: provenance is first-wins, so which trace a
// fact carries depends on the order the driver visits nodes in.
func summaryFacts(s *Summary) string {
	return fmt.Sprintf("mask=%08b unlocks=%q escapes=%q recv=%q",
		s.Mask, s.UnlockFields, s.ParamEscape, s.RecvEscape)
}

// TestFixpointMatchesSweep holds the caller-driven worklist of NewProgram
// to the whole-list sweep, on every fixture package and on the module:
// every node's effect facts (mask, unlock fields, escape strings) must be
// the same under both drivers.
func TestFixpointMatchesSweep(t *testing.T) {
	for _, set := range LoadFixtures(t, nil, true) {
		p := NewProgram(set.Pkgs)
		worklist := p.summaries
		p.summaries = make(map[*FuncNode]*Summary, len(worklist))
		for _, n := range p.graph.nodes {
			p.summaries[n] = &Summary{}
		}
		sweep(p)
		diffs := 0
		for _, n := range p.graph.nodes {
			got, want := summaryFacts(worklist[n]), summaryFacts(p.summaries[n])
			if got != want && diffs < 5 {
				t.Errorf("%s: %s:\n worklist: %s\n    sweep: %s", set.Name, n.Name(), got, want)
			}
			if got != want {
				diffs++
			}
		}
		if diffs > 0 {
			t.Errorf("%s: %d of %d summaries differ between worklist and sweep", set.Name, diffs, len(p.graph.nodes))
		}
	}
}
