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
// field's name. The first case is the double-release shape on the observer
// path: a second MoveFinished for the same copy.
func TestNonnegTwinsPanic(t *testing.T) {
	cases := []struct {
		field string
		drive func(s *Sim)
	}{
		{"Sim.activeCopies", func(s *Sim) {
			mv := plan.Move{S: 0, From: 0, To: 1}
			ref := ctl.MoveRef{Round: 1, Seq: 1}
			s.MoveStarted(mv, ref, 0, 1)
			s.MoveFinished(mv, ref, 1, true)
			s.MoveFinished(mv, ref, 1, true)
		}},
		{"query.remain", func(s *Sim) {
			// Two legs charged to a one-leg query: the second completion
			// finds nothing left to merge.
			qi := s.allocQuery(0, 1)
			enqueue(s, 0, qi, 0, 1)
			enqueue(s, 0, qi, 0, 1)
			s.Sleep(3)
		}},
		{"machine.n", func(s *Sim) {
			m := &s.machines[0]
			m.push(leg{})
			m.pop()
			m.pop()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, tc.field+" went negative") {
					t.Fatalf("panic = %q, want one naming %s", msg, tc.field)
				}
			}()
			tc.drive(bareSim([]float64{1, 1}, 1))
		})
	}
}
