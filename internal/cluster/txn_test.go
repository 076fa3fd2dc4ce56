package cluster

import (
	"math"
	"testing"
)

// mustEqualPlacements fails unless a and b are bit-identical: same
// assignment, same hosted order on every machine, Float64bits-equal
// aggregates, same vacancy/unassigned/group bookkeeping. This is the
// contract Rollback promises — indistinguishable from restoring a clone.
func mustEqualPlacements(t *testing.T, label string, a, b *Placement) {
	t.Helper()
	c := a.Cluster()
	for s := range c.Shards {
		if a.Home(ShardID(s)) != b.Home(ShardID(s)) {
			t.Fatalf("%s: shard %d home %d vs %d", label, s, a.Home(ShardID(s)), b.Home(ShardID(s)))
		}
	}
	for m := 0; m < c.NumMachines(); m++ {
		id := MachineID(m)
		if a.Count(id) != b.Count(id) {
			t.Fatalf("%s: machine %d count %d vs %d", label, m, a.Count(id), b.Count(id))
		}
		for i := 0; i < a.Count(id); i++ {
			if a.ShardAt(id, i) != b.ShardAt(id, i) {
				t.Fatalf("%s: machine %d slot %d holds %d vs %d — hosted order not restored",
					label, m, i, a.ShardAt(id, i), b.ShardAt(id, i))
			}
		}
		au, bu := a.Used(id), b.Used(id)
		for d := range au {
			if math.Float64bits(au[d]) != math.Float64bits(bu[d]) {
				t.Fatalf("%s: machine %d used[%d] %v vs %v — not bit-exact", label, m, d, au[d], bu[d])
			}
		}
		if math.Float64bits(a.Load(id)) != math.Float64bits(b.Load(id)) {
			t.Fatalf("%s: machine %d load %v vs %v — not bit-exact", label, m, a.Load(id), b.Load(id))
		}
		if a.GroupCount(id, 7) != b.GroupCount(id, 7) {
			t.Fatalf("%s: machine %d group 7 count %d vs %d",
				label, m, a.GroupCount(id, 7), b.GroupCount(id, 7))
		}
	}
	if a.NumVacant() != b.NumVacant() {
		t.Fatalf("%s: vacant %d vs %d", label, a.NumVacant(), b.NumVacant())
	}
	if a.UnassignedCount() != b.UnassignedCount() {
		t.Fatalf("%s: unassigned %d vs %d", label, a.UnassignedCount(), b.UnassignedCount())
	}
}

// mustClosedJournal checks the journal contract after Commit or Rollback:
// the scope is closed, TxnLen/TxnOp still return its mutations — want, as
// (shard, machine) pairs in application order — and the next BeginTxn
// starts from an empty journal.
func mustClosedJournal(t *testing.T, label string, p *Placement, want [][2]int) {
	t.Helper()
	if p.InTxn() {
		t.Fatalf("%s: scope still active", label)
	}
	if p.TxnLen() != len(want) {
		t.Fatalf("%s: TxnLen = %d, want the closed scope's %d mutations", label, p.TxnLen(), len(want))
	}
	for i, w := range want {
		if s, m := p.TxnOp(i); int(s) != w[0] || int(m) != w[1] {
			t.Fatalf("%s: op %d = (%d,%d), want (%d,%d)", label, i, s, m, w[0], w[1])
		}
	}
	p.BeginTxn()
	if p.TxnLen() != 0 {
		t.Fatalf("%s: next BeginTxn kept %d stale journal entries", label, p.TxnLen())
	}
	p.Commit()
}

func TestTxnRollbackRestoresExactly(t *testing.T) {
	c := groupedCluster()
	p, err := FromAssignment(c, []MachineID{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Clone()

	p.BeginTxn()
	// A dense mix of primitives: drain machine 1 (making it vacant), fill
	// the always-vacant machine 2, shuffle machine 0, and move a grouped
	// shard so the group counters churn.
	if err := p.Remove(2); err != nil {
		t.Fatal(err)
	}
	p.Move(3, 2)
	if err := p.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(2, 0); err != nil {
		t.Fatal(err)
	}
	p.Move(1, 2)
	if err := p.Place(0, 1); err != nil {
		t.Fatal(err)
	}
	if p.TxnLen() == 0 {
		t.Fatal("journal recorded nothing")
	}
	p.Rollback()

	mustEqualPlacements(t, "after rollback", p, snap)
	mustClosedJournal(t, "after Rollback", p,
		[][2]int{{2, 1}, {3, 1}, {3, 2}, {0, 0}, {2, 0}, {1, 0}, {1, 2}, {0, 1}})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnCommitKeepsMutations(t *testing.T) {
	c := groupedCluster()
	p, err := FromAssignment(c, []MachineID{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	p.BeginTxn()
	p.Move(2, 0)
	p.Move(3, 2)
	p.Commit()
	// Committed state must equal the same assignment built from scratch.
	want, err := FromAssignment(c, p.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if p.Home(2) != 0 || p.Home(3) != 2 {
		t.Fatalf("moves lost: home(2)=%d home(3)=%d", p.Home(2), p.Home(3))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.UnassignedCount() != want.UnassignedCount() || p.NumVacant() != want.NumVacant() {
		t.Fatalf("bookkeeping diverged from fresh build: %d/%d vs %d/%d",
			p.UnassignedCount(), p.NumVacant(), want.UnassignedCount(), want.NumVacant())
	}
	mustClosedJournal(t, "after Commit", p, [][2]int{{2, 1}, {2, 0}, {3, 1}, {3, 2}})
}

func TestTxnOpReportsTouches(t *testing.T) {
	p, err := FromAssignment(testCluster(), []MachineID{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	p.BeginTxn()
	p.Move(2, 0) // unplace(2 from 1) + place(2 on 0)
	if p.TxnLen() != 2 {
		t.Fatalf("TxnLen = %d, want 2", p.TxnLen())
	}
	s0, m0 := p.TxnOp(0)
	s1, m1 := p.TxnOp(1)
	if s0 != 2 || m0 != 1 {
		t.Errorf("op 0 = (%d,%d), want unplace record (2,1)", s0, m0)
	}
	if s1 != 2 || m1 != 0 {
		t.Errorf("op 1 = (%d,%d), want place record (2,0)", s1, m1)
	}
	p.Rollback()
}

func TestTxnMisusePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	p, err := FromAssignment(testCluster(), []MachineID{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("stray Commit", func() { p.Commit() })
	mustPanic("stray Rollback", func() { p.Rollback() })
	p.BeginTxn()
	mustPanic("nested BeginTxn", func() { p.BeginTxn() })
	p.Rollback()
}

// TestTxnRollbackAfterClone pins the Clone-mid-transaction semantics: the
// clone captures the mutated state and is independent of the original's
// rollback.
func TestTxnRollbackAfterClone(t *testing.T) {
	p, err := FromAssignment(testCluster(), []MachineID{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	p.BeginTxn()
	p.Move(2, 0)
	mid := p.Clone()
	p.Rollback()
	if mid.Home(2) != 0 {
		t.Fatalf("clone home(2) = %d, want the mutated 0", mid.Home(2))
	}
	if p.Home(2) != 1 {
		t.Fatalf("original home(2) = %d, want the restored 1", p.Home(2))
	}
	// The clone must not carry the original's journal.
	if mid.InTxn() {
		t.Fatal("clone inherited an active transaction")
	}
}
