// Package plan turns a desired reassignment (initial placement → final
// placement) into an ordered schedule of shard moves that respects the
// paper's transient resource constraint: while a shard moves from machine a
// to machine b, its static resources are held on both machines at once.
//
// The planner executes moves serially against a working copy of the
// placement. A move s: a→b is admissible only if b currently has free static
// capacity for s while s still occupies a — exactly the both-endpoints
// constraint. When no pending shard can move directly (a deadlock: every
// target is full of shards that themselves need to leave), the planner
// stages a blocking shard on an intermediate machine with spare room —
// preferentially a vacant or exchange machine. This multi-hop staging is the
// mechanism by which borrowed exchange machines unlock otherwise infeasible
// rebalances.
package plan

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"rexchange/internal/cluster"
)

// Move is one migration step: shard S relocates from From to To.
type Move struct {
	S    cluster.ShardID   `json:"s"`
	From cluster.MachineID `json:"from"`
	To   cluster.MachineID `json:"to"`
}

// Plan is an ordered, transiently feasible move schedule.
type Plan struct {
	Moves []Move `json:"moves"`
	// Staged counts moves that were intermediate hops rather than direct
	// relocations to the shard's final machine.
	Staged int `json:"staged,omitempty"`
	// Displaced counts shards that were not part of the reassignment but
	// had to be temporarily evicted to break deadlocks.
	Displaced int `json:"displaced,omitempty"`
}

// NumMoves returns the total number of migration steps.
func (p *Plan) NumMoves() int { return len(p.Moves) }

// BytesMoved returns the total disk volume migrated (sum of the moved
// shards' disk demand over all steps), a proxy for migration cost/duration.
func (p *Plan) BytesMoved(c *cluster.Cluster) float64 {
	t := 0.0
	for _, mv := range p.Moves {
		t += c.Shards[mv.S].Static[1] // vec.Disk
	}
	return t
}

// ErrInfeasible is returned when the planner cannot schedule the
// reassignment under the transient constraints (typically: no vacancy
// anywhere to stage through).
var ErrInfeasible = errors.New("plan: no transiently feasible move schedule found")

// Planner configures schedule construction.
type Planner struct {
	// AllowDisplace permits temporarily evicting shards that the
	// reassignment did not intend to move. Disabling it models operators
	// who only allow touching the shards selected by the optimizer.
	AllowDisplace bool
}

// DefaultPlanner returns the planner configuration used by the solver.
func DefaultPlanner() Planner {
	return Planner{AllowDisplace: true}
}

// maxHops bounds staging hops per shard before the planner refuses to stage
// it again.
const maxHops = 4

// Build computes a transiently feasible schedule that transforms from into
// to. Both placements must be over the same cluster with every shard
// assigned. The from placement is not modified.
func (pl Planner) Build(from, to *cluster.Placement) (*Plan, error) {
	if from.Cluster() != to.Cluster() {
		return nil, fmt.Errorf("plan: placements refer to different clusters")
	}
	c := from.Cluster()
	if from.UnassignedCount() > 0 || to.UnassignedCount() > 0 {
		return nil, fmt.Errorf("plan: placements must be complete (unassigned: from=%d to=%d)",
			from.UnassignedCount(), to.UnassignedCount())
	}

	target := to.Assignment()
	w := from.Clone()

	// pending: shards not yet on their final machine.
	pendingSet := make(map[cluster.ShardID]bool)
	for s := range target {
		if w.Home(cluster.ShardID(s)) != target[s] {
			pendingSet[cluster.ShardID(s)] = true
		}
	}
	// The step budget bounds total scheduled moves, staging hops included.
	maxSteps := 8*len(pendingSet) + 64

	plan := &Plan{}
	hops := make(map[cluster.ShardID]int)

	for len(pendingSet) > 0 {
		if len(plan.Moves) >= maxSteps {
			return nil, fmt.Errorf("%w: step budget %d exhausted with %d shards pending",
				ErrInfeasible, maxSteps, len(pendingSet))
		}
		pending := sortedPending(c, pendingSet)

		// Phase 1: apply every direct move currently admissible. Largest
		// shards first: they are the hardest to fit, so give them first
		// pick of the free space.
		progress := false
		for _, s := range pending {
			if !pendingSet[s] { // may have been resolved this sweep
				continue
			}
			t := target[s]
			if w.Home(s) == t {
				delete(pendingSet, s)
				continue
			}
			if w.CanPlace(s, t) {
				plan.Moves = append(plan.Moves, Move{S: s, From: w.Home(s), To: t})
				w.Move(s, t)
				if cluster.DebugAsserts {
					w.MustInvariants("plan direct move")
				}
				delete(pendingSet, s)
				progress = true
			}
		}
		if progress {
			continue
		}

		// Phase 2: deadlock. Stage one blocking shard to an intermediate
		// machine to open space.
		if pl.stageOne(c, w, target, pendingSet, hops, plan) {
			continue
		}
		return nil, fmt.Errorf("%w: %d shards pending and no staging possible",
			ErrInfeasible, len(pendingSet))
	}
	return plan, nil
}

// sortedPending returns the pending shards ordered by decreasing static
// footprint (ties by ID) for deterministic schedules.
func sortedPending(c *cluster.Cluster, set map[cluster.ShardID]bool) []cluster.ShardID {
	out := make([]cluster.ShardID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := c.Shards[out[i]].Static.MaxDim(), c.Shards[out[j]].Static.MaxDim()
		if a != b {
			return a > b
		}
		return out[i] < out[j]
	})
	return out
}

// stageOne relocates one shard off a blocked target machine to an
// intermediate machine, reporting whether it scheduled a move. Preference
// order: (1) a pending shard sitting on some pending shard's target —
// moving it is work we owe anyway; (2) with AllowDisplace, any shard on a
// blocked target, which then becomes pending to return.
func (pl Planner) stageOne(
	c *cluster.Cluster,
	w *cluster.Placement,
	target []cluster.MachineID,
	pendingSet map[cluster.ShardID]bool,
	hops map[cluster.ShardID]int,
	plan *Plan,
) bool {
	pending := sortedPending(c, pendingSet)

	// Collect the set of blocked target machines, biggest blocked shard
	// first so we open space where it matters most.
	var blocked []cluster.MachineID
	seen := make(map[cluster.MachineID]bool)
	for _, s := range pending {
		t := target[s]
		if !seen[t] {
			seen[t] = true
			blocked = append(blocked, t)
		}
	}

	tryStage := func(victim cluster.ShardID, isPending bool) bool {
		if hops[victim] >= maxHops {
			return false
		}
		m := pl.bestStaging(c, w, victim, target[victim])
		if m == cluster.Unassigned {
			return false
		}
		plan.Moves = append(plan.Moves, Move{S: victim, From: w.Home(victim), To: m})
		plan.Staged++
		if !isPending {
			plan.Displaced++
			pendingSet[victim] = true // must return to its (unchanged) target
		}
		w.Move(victim, m)
		if cluster.DebugAsserts {
			w.MustInvariants("plan staging move")
		}
		hops[victim]++
		return true
	}

	// Preference 1: pending shards that sit on blocked machines.
	for _, t := range blocked {
		var victims []cluster.ShardID
		w.EachShardOn(t, func(u cluster.ShardID) {
			if pendingSet[u] {
				victims = append(victims, u)
			}
		})
		sortCandidates(c, victims)
		for _, v := range victims {
			if tryStage(v, true) {
				return true
			}
		}
	}
	if !pl.AllowDisplace {
		return false
	}
	// Preference 2: displace settled shards off blocked machines.
	for _, t := range blocked {
		var victims []cluster.ShardID
		w.EachShardOn(t, func(u cluster.ShardID) {
			if !pendingSet[u] {
				victims = append(victims, u)
			}
		})
		sortCandidates(c, victims)
		for _, v := range victims {
			if tryStage(v, false) {
				return true
			}
		}
	}
	return false
}

// sortCandidates orders eviction candidates smallest-first: evicting the
// smallest shard that opens enough space minimizes wasted migration volume.
func sortCandidates(c *cluster.Cluster, vs []cluster.ShardID) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := c.Shards[vs[i]].Static.MaxDim(), c.Shards[vs[j]].Static.MaxDim()
		if a != b {
			return a < b
		}
		return vs[i] < vs[j]
	})
}

// bestStaging picks the intermediate machine for victim: it must fit the
// shard now, must not be the victim's final target (that would be a direct
// move, already known inadmissible) — preferring exchange machines and
// machines with the most free room.
func (pl Planner) bestStaging(
	c *cluster.Cluster,
	w *cluster.Placement,
	victim cluster.ShardID,
	victimTarget cluster.MachineID,
) cluster.MachineID {
	best := cluster.Unassigned
	bestScore := -1.0
	cur := w.Home(victim)
	for m := 0; m < c.NumMachines(); m++ {
		id := cluster.MachineID(m)
		if id == cur || id == victimTarget {
			continue
		}
		if !w.CanPlace(victim, id) {
			continue
		}
		free := w.Free(id)
		score := free.MaxDim()
		if c.Machines[m].Exchange {
			score *= 4 // strongly prefer borrowed machines for staging
		}
		if w.IsVacant(id) {
			score *= 2
		}
		if score > bestScore {
			best, bestScore = id, score
		}
	}
	return best
}

// Save writes the plan as JSON to w, so schedules can be computed offline
// (rebalance -plan-out) and executed later (rexd -plan-in).
func (p *Plan) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// SaveFile writes the plan as JSON to path.
func (p *Plan) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("plan: save: %w", err)
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		return fmt.Errorf("plan: save %s: %w", path, err)
	}
	return f.Close()
}

// Load reads a JSON plan from r and checks structural sanity (IDs
// non-negative, no self-moves). Transient feasibility against a placement
// is checked by Validate.
func Load(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("plan: load: %w", err)
	}
	for i, mv := range p.Moves {
		if mv.S < 0 || mv.From < 0 || mv.To < 0 {
			return nil, fmt.Errorf("plan: load: move %d has negative IDs (%d: %d→%d)", i, mv.S, mv.From, mv.To)
		}
		if mv.From == mv.To {
			return nil, fmt.Errorf("plan: load: move %d is a self-move", i)
		}
	}
	return &p, nil
}

// LoadFile reads a JSON plan from path.
func LoadFile(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("plan: load: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Validate replays the plan from the given starting placement and verifies
// transient feasibility of every step, returning the resulting placement.
// It is the test oracle for Build and is also used by the CLI to double-
// check schedules before printing them.
func (p *Plan) Validate(from *cluster.Placement) (*cluster.Placement, error) {
	w := from.Clone()
	for i, mv := range p.Moves {
		if w.Home(mv.S) != mv.From {
			return nil, fmt.Errorf("plan: step %d moves shard %d from %d but it is on %d",
				i, mv.S, mv.From, w.Home(mv.S))
		}
		if mv.From == mv.To {
			return nil, fmt.Errorf("plan: step %d is a self-move", i)
		}
		if !w.CanPlace(mv.S, mv.To) {
			return nil, fmt.Errorf("plan: step %d (shard %d → machine %d) violates transient capacity",
				i, mv.S, mv.To)
		}
		w.Move(mv.S, mv.To)
		if cluster.DebugAsserts {
			w.MustInvariants("plan replay step")
		}
	}
	return w, nil
}
