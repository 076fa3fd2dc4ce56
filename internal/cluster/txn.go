package cluster

import "rexchange/internal/vec"

// This file implements the placement undo journal — the delta kernel that
// lets the LNS solver try a destroy/repair neighborhood in place and, when
// the neighborhood is rejected, roll the placement back in O(mutations)
// instead of cloning the whole structure up front.
//
// Correctness contract: Rollback restores the placement *bit-for-bit* —
// including the floating-point aggregates (used, load) and the order of
// shards within each on-machine list. Inverse arithmetic (subtracting what
// was added) would leave rounding residue and reordered shard lists, both
// of which are observable downstream (operator tie-breaks iterate hosted
// shards in order; utilization bits feed the objective). The journal
// therefore snapshots the touched machine's aggregates before every
// primitive mutation and restores the saved values in reverse order.
//
// The journal is also the one record of what a scope touched: Commit and
// Rollback close the scope but leave the log readable through TxnLen/TxnOp
// until the next BeginTxn, so the solver re-derives its incremental
// objective state (core/incremental.go) by walking the log itself — after a
// rollback too — instead of keeping a copy.

// txnRec journals one primitive placement mutation.
type txnRec struct {
	s     ShardID
	m     MachineID
	place bool // true: place(s, m); false: unplace of s from m
	pos   int  // unplace only: index s held in on[m]

	prevUsed vec.Vec // used[m] before the mutation
	prevLoad float64 // load[m] before the mutation
}

// BeginTxn opens an undo scope, discarding the previous scope's journal:
// every subsequent Place/Remove/Move is journaled until Commit or Rollback.
// Transactions do not nest; calling BeginTxn while one is active panics
// (the solver's iteration structure guarantees strict begin→commit/rollback
// pairing, so nesting indicates a bug).
func (p *Placement) BeginTxn() {
	if p.txnActive {
		panic("cluster: BeginTxn inside an active transaction")
	}
	p.txnActive = true
	p.txnLog = p.txnLog[:0]
}

// InTxn reports whether an undo scope is active.
func (p *Placement) InTxn() bool { return p.txnActive }

// TxnLen returns the number of journaled mutations in the most recent
// scope: the active one, or the one Commit or Rollback last closed, whose
// journal stays readable until the next BeginTxn. Together with TxnOp it
// lets callers maintain derived incremental state over exactly the shards
// and machines a neighborhood touched, without allocating.
//
//rexlint:noalloc
func (p *Placement) TxnLen() int { return len(p.txnLog) }

// TxnOp returns the shard and machine touched by journaled mutation i
// (0 ≤ i < TxnLen), in application order.
//
//rexlint:noalloc
func (p *Placement) TxnOp(i int) (ShardID, MachineID) {
	r := &p.txnLog[i]
	return r.s, r.m
}

// Commit closes the undo scope keeping every mutation. O(1).
//
//rexlint:noalloc
func (p *Placement) Commit() {
	if !p.txnActive {
		panic("cluster: Commit without BeginTxn")
	}
	p.txnActive = false
}

// Rollback closes the undo scope undoing every journaled mutation in
// reverse order. The placement is restored exactly to its BeginTxn state:
// aggregate floats are bit-identical and per-machine shard order is
// preserved, so a rolled-back iteration is indistinguishable from one that
// restored a clone. Cost is O(mutations in the scope).
//
//rexlint:noalloc
func (p *Placement) Rollback() {
	if !p.txnActive {
		panic("cluster: Rollback without BeginTxn")
	}
	for i := len(p.txnLog) - 1; i >= 0; i-- {
		r := &p.txnLog[i]
		if r.place {
			p.undoPlace(r)
		} else {
			p.undoUnplace(r)
		}
	}
	p.txnActive = false
	if DebugAsserts {
		p.MustInvariants("txn rollback")
	}
}

// undoPlace reverses place(s, m). Because records are undone in reverse
// order, on[m] is exactly as it was right after the place: s sits at the
// end of the list.
func (p *Placement) undoPlace(r *txnRec) {
	last := len(p.on[r.m]) - 1
	p.on[r.m] = p.on[r.m][:last]
	if last == 0 {
		p.vacant++
	}
	p.home[r.s] = Unassigned
	p.used[r.m] = r.prevUsed
	p.load[r.m] = r.prevLoad
	p.unassigned++
}

// undoUnplace reverses unplace of s from m. The swap-remove moved the
// then-last shard into index r.pos; put it back at the end and reinstate s
// at its recorded position so the hosted order matches the pre-transaction
// state element for element.
func (p *Placement) undoUnplace(r *txnRec) {
	n := len(p.on[r.m])
	if r.pos == n {
		// s was the last element; the swap was a self-swap
		//rexlint:ignore alloccheck append restores an element just removed; capacity is never exceeded
		p.on[r.m] = append(p.on[r.m], r.s)
	} else {
		moved := p.on[r.m][r.pos]
		//rexlint:ignore alloccheck append restores an element just removed; capacity is never exceeded
		p.on[r.m] = append(p.on[r.m], moved)
		p.pos[moved] = n
		p.on[r.m][r.pos] = r.s
	}
	p.pos[r.s] = r.pos
	if n == 0 {
		//rexlint:ignore nonneg the machine was vacant after the recorded unplace being reversed, so vacant counts it
		p.vacant--
	}
	p.home[r.s] = r.m
	p.used[r.m] = r.prevUsed
	p.load[r.m] = r.prevLoad
	//rexlint:ignore nonneg undoUnplace reverses an unplace that incremented unassigned
	p.unassigned--
}
