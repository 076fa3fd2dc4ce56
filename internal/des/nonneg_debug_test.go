//go:build debugasserts

package des

import (
	"fmt"
	"strings"
	"testing"

	"rexchange/internal/ctl"
	"rexchange/internal/plan"
)

// TestNonnegTwinsPanic drives each //rexlint:nonneg counter of the
// simulator below zero and expects its runtime twin to panic with the
// field's name. Each case first takes the legal steps, which must not
// panic, so a doubled decrement trips the twin early and fails here too;
// only the last step is illegal. The first case is the double-release
// shape on the observer path: a second MoveFinished for the same copy.
func TestNonnegTwinsPanic(t *testing.T) {
	mv := plan.Move{S: 0, From: 0, To: 1}
	ref := ctl.MoveRef{Round: 1, Seq: 1}
	cases := []struct {
		field          string
		legal, illegal func(s *Sim)
	}{
		{"Sim.activeCopies", func(s *Sim) {
			s.MoveStarted(mv, ref, 0, 1)
			s.MoveFinished(mv, ref, 1, true)
		}, func(s *Sim) {
			s.MoveFinished(mv, ref, 1, true)
		}},
		{"query.remain", func(s *Sim) {
			// Two legs charged to a one-leg query: the first completion
			// merges it, the second finds nothing left to merge.
			qi := s.allocQuery(0, 1)
			enqueue(s, 0, qi, 0, 1)
			enqueue(s, 0, qi, 0, 1)
			s.Sleep(1.5)
		}, func(s *Sim) {
			s.Sleep(3)
		}},
		{"machine.n", func(s *Sim) {
			m := &s.machines[0]
			m.push(leg{})
			m.pop()
		}, func(s *Sim) {
			s.machines[0].pop()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			s := bareSim([]float64{1, 1}, 1)
			legalDone := false
			defer func() {
				msg := fmt.Sprint(recover())
				if !legalDone {
					t.Fatalf("legal steps panicked: %s", msg)
				}
				if !strings.Contains(msg, tc.field+" went negative") {
					t.Fatalf("panic = %q, want one naming %s", msg, tc.field)
				}
			}()
			tc.legal(s)
			legalDone = true
			tc.illegal(s)
		})
	}
}
