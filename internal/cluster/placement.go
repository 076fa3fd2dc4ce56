package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"rexchange/internal/vec"
)

// Placement is a (possibly partial) assignment of shards to machines with
// incrementally maintained per-machine aggregates. All mutating operations
// are O(1); Clone is O(shards + machines). Speculative mutation batches can
// be undone in O(mutations) via the BeginTxn/Commit/Rollback journal
// (txn.go) instead of cloning. Placement is not safe for concurrent
// mutation; parallel searches clone first. That single-owner discipline is
// machine-checked: rexlint's sharecheck analyzer forbids a Placement from
// escaping to a goroutine, channel, global, or second owner unless the
// hand-off site carries a reviewed //rexlint:transfer annotation.
//
//rexlint:owned
type Placement struct {
	c    *Cluster
	home []MachineID // per shard; Unassigned while removed
	used []vec.Vec   // per machine: static usage of hosted shards
	load []float64   // per machine: total load of hosted shards
	on   [][]ShardID // per machine: hosted shards (unordered)
	pos  []int       // per shard: index within on[home[s]]

	unassigned int //rexlint:nonneg — number of shards with home == Unassigned
	vacant     int //rexlint:nonneg — number of machines hosting no shards
	// members indexes the cluster's anti-affinity groups: group → its
	// shards in ascending ID order; nil for an ungrouped fleet. Immutable
	// and shared by clones. Which machines host a group is read off home,
	// so no mutation maintains group state.
	members map[int][]ShardID

	// undo journal (see txn.go); records mutations while txnActive.
	txnActive bool
	txnLog    []txnRec
}

// NewPlacement creates an empty placement (all shards unassigned) for c.
func NewPlacement(c *Cluster) *Placement {
	p := &Placement{
		c:          c,
		home:       make([]MachineID, len(c.Shards)),
		used:       make([]vec.Vec, len(c.Machines)),
		load:       make([]float64, len(c.Machines)),
		on:         make([][]ShardID, len(c.Machines)),
		pos:        make([]int, len(c.Shards)),
		unassigned: len(c.Shards),
		vacant:     len(c.Machines),
	}
	for s := range p.home {
		p.home[s] = Unassigned
		if g := c.Shards[s].Group; g != 0 {
			if p.members == nil {
				p.members = make(map[int][]ShardID)
			}
			p.members[g] = append(p.members[g], ShardID(s))
		}
	}
	return p
}

// FromAssignment creates a placement from an explicit shard→machine mapping.
// Entries may be Unassigned. Capacity violations are permitted here (the
// caller may be describing an observed overloaded state); use Feasible to
// check.
func FromAssignment(c *Cluster, assign []MachineID) (*Placement, error) {
	if len(assign) != len(c.Shards) {
		return nil, fmt.Errorf("cluster: assignment has %d entries for %d shards", len(assign), len(c.Shards))
	}
	p := NewPlacement(c)
	for s, m := range assign {
		if m == Unassigned {
			continue
		}
		if m < 0 || int(m) >= len(c.Machines) {
			return nil, fmt.Errorf("cluster: shard %d assigned to invalid machine %d", s, m)
		}
		p.place(ShardID(s), m)
	}
	return p, nil
}

// BorrowExchange rebuilds p over its cluster extended with k exchange
// machines shaped like the fleet average (mean capacity, mean speed), every
// shard staying where it is. With k <= 0 it returns p itself.
func BorrowExchange(p *Placement, k int) (*Placement, error) {
	if k <= 0 {
		return p, nil
	}
	c := p.c
	n := float64(c.NumMachines())
	ec := c.WithExchange(k, c.TotalCapacity().Scale(1/n), c.TotalSpeed()/n)
	return FromAssignment(ec, p.home)
}

// Cluster returns the cluster this placement refers to.
func (p *Placement) Cluster() *Cluster { return p.c }

// Home returns the machine hosting shard s, or Unassigned.
func (p *Placement) Home(s ShardID) MachineID { return p.home[s] }

// Assignment returns a copy of the full shard→machine mapping.
func (p *Placement) Assignment() []MachineID {
	out := make([]MachineID, len(p.home))
	copy(out, p.home)
	return out
}

// Used returns machine m's current static resource usage.
func (p *Placement) Used(m MachineID) vec.Vec { return p.used[m] }

// Free returns machine m's remaining static capacity.
func (p *Placement) Free(m MachineID) vec.Vec {
	return p.c.Machines[m].Capacity.Sub(p.used[m])
}

// Load returns machine m's total hosted load.
func (p *Placement) Load(m MachineID) float64 { return p.load[m] }

// Utilization returns machine m's normalized load (load/speed).
func (p *Placement) Utilization(m MachineID) float64 {
	return p.load[m] / p.c.Machines[m].Speed
}

// Count returns the number of shards hosted on machine m.
func (p *Placement) Count(m MachineID) int { return len(p.on[m]) }

// ShardsOn returns the shards hosted on machine m. The returned slice is a
// copy and safe to retain.
func (p *Placement) ShardsOn(m MachineID) []ShardID {
	return append([]ShardID(nil), p.on[m]...)
}

// ShardAt returns the i-th shard hosted on machine m (0 ≤ i < Count(m)).
// The index is only stable while the placement is not mutated; hot paths
// use it to snapshot a machine's shards without allocating.
func (p *Placement) ShardAt(m MachineID, i int) ShardID { return p.on[m][i] }

// EachShardOn calls f for every shard on machine m. f must not mutate the
// placement.
func (p *Placement) EachShardOn(m MachineID, f func(ShardID)) {
	for _, s := range p.on[m] {
		f(s)
	}
}

// Unassigned returns the number of shards without a home.
func (p *Placement) UnassignedCount() int { return p.unassigned }

// IsVacant reports whether machine m hosts no shards.
func (p *Placement) IsVacant(m MachineID) bool { return len(p.on[m]) == 0 }

// NumVacant returns the number of machines hosting no shards, maintained in
// O(1) for the solver's vacancy-budget checks.
func (p *Placement) NumVacant() int { return p.vacant }

// VacantMachines returns the IDs of all machines hosting no shards. It
// allocates the (exactly sized) result slice; hot paths that only need to
// visit the vacant set should use EachVacant instead.
func (p *Placement) VacantMachines() []MachineID {
	ids := make([]MachineID, 0, p.vacant)
	p.EachVacant(func(m MachineID) { ids = append(ids, m) })
	return ids
}

// EachVacant calls f for every machine hosting no shards, in ascending
// machine-ID order. It allocates nothing (the cross-partition exchange
// phase calls it in its hot loop) and stops early once every vacant
// machine has been visited. f must not mutate the placement.
//
//rexlint:noalloc
func (p *Placement) EachVacant(f func(MachineID)) {
	remaining := p.vacant
	for m := 0; remaining > 0 && m < len(p.on); m++ {
		if len(p.on[m]) == 0 {
			//rexlint:ignore alloccheck the callback is the caller's; TestEachVacantAllocFree pins the hot-loop contract at runtime
			f(MachineID(m))
			remaining--
		}
	}
}

// CanPlace reports whether shard s fits on machine m: static capacities
// must hold and no replica of the same anti-affinity group may already be
// hosted there — s itself included, so a grouped shard never "fits" on its
// own home. The member scan is written out rather than calling GroupCount
// to keep CanPlace within the inlining budget of the repair scans.
func (p *Placement) CanPlace(s ShardID, m MachineID) bool {
	sh := &p.c.Shards[s]
	if sh.Group != 0 {
		for _, t := range p.members[sh.Group] {
			if p.home[t] == m {
				return false
			}
		}
	}
	return sh.Static.FitsWithin(p.used[m], p.c.Machines[m].Capacity)
}

// GroupCount returns how many shards of anti-affinity group g machine m
// hosts.
func (p *Placement) GroupCount(m MachineID, g int) int {
	n := 0
	for _, t := range p.members[g] {
		if p.home[t] == m {
			n++
		}
	}
	return n
}

// place links shard s to machine m, updating aggregates. It assumes s is
// currently unassigned.
func (p *Placement) place(s ShardID, m MachineID) {
	if p.txnActive {
		p.txnLog = append(p.txnLog, txnRec{
			s: s, m: m, place: true,
			prevUsed: p.used[m], prevLoad: p.load[m],
		})
	}
	sh := &p.c.Shards[s]
	p.home[s] = m
	p.used[m] = p.used[m].Add(sh.Static)
	p.load[m] += sh.Load
	p.pos[s] = len(p.on[m])
	if len(p.on[m]) == 0 {
		//rexlint:ignore nonneg a machine with an empty hosted list is counted in vacant (MustInvariants recomputes both)
		p.vacant--
	}
	p.on[m] = append(p.on[m], s)
	//rexlint:ignore nonneg place's caller checked home[s] == Unassigned, so s is counted in unassigned
	p.unassigned--
}

// unplace unlinks shard s from its machine, updating aggregates. It assumes
// s is currently assigned.
func (p *Placement) unplace(s ShardID) {
	m := p.home[s]
	if p.txnActive {
		p.txnLog = append(p.txnLog, txnRec{
			s: s, m: m, place: false, pos: p.pos[s],
			prevUsed: p.used[m], prevLoad: p.load[m],
		})
	}
	sh := &p.c.Shards[s]
	p.used[m] = p.used[m].Sub(sh.Static)
	p.load[m] -= sh.Load
	// swap-remove from on[m]
	i := p.pos[s]
	last := len(p.on[m]) - 1
	moved := p.on[m][last]
	p.on[m][i] = moved
	p.pos[moved] = i
	p.on[m] = p.on[m][:last]
	if last == 0 {
		p.vacant++
	}
	p.home[s] = Unassigned
	p.unassigned++
}

// Place assigns unassigned shard s to machine m without checking capacity.
// It returns an error if s is already assigned.
func (p *Placement) Place(s ShardID, m MachineID) error {
	if p.home[s] != Unassigned {
		return fmt.Errorf("cluster: shard %d already on machine %d", s, p.home[s])
	}
	p.place(s, m)
	return nil
}

// PlaceChecked assigns unassigned shard s to m only if it fits; it reports
// whether the placement happened.
func (p *Placement) PlaceChecked(s ShardID, m MachineID) bool {
	if p.home[s] != Unassigned || !p.CanPlace(s, m) {
		return false
	}
	p.place(s, m)
	return true
}

// Remove unassigns shard s. It returns an error if s is already unassigned.
func (p *Placement) Remove(s ShardID) error {
	if p.home[s] == Unassigned {
		return fmt.Errorf("cluster: shard %d is not assigned", s)
	}
	p.unplace(s)
	return nil
}

// Move reassigns shard s to machine m (unchecked). Moving to its current
// machine is a no-op.
func (p *Placement) Move(s ShardID, m MachineID) {
	if p.home[s] == m {
		return
	}
	if p.home[s] != Unassigned {
		p.unplace(s)
	}
	p.place(s, m)
}

// MoveChecked reassigns shard s to machine m only if m has room; it reports
// whether the move happened.
func (p *Placement) MoveChecked(s ShardID, m MachineID) bool {
	if p.home[s] == m {
		return true
	}
	if !p.CanPlace(s, m) {
		return false
	}
	p.Move(s, m)
	return true
}

// Clone returns a deep copy sharing the (immutable) cluster. The clone
// starts with no undo journal: cloning mid-transaction captures the current
// (possibly partially mutated) state, and rolling back the original does
// not affect the clone.
func (p *Placement) Clone() *Placement {
	q := &Placement{
		c:          p.c,
		home:       append([]MachineID(nil), p.home...),
		used:       append([]vec.Vec(nil), p.used...),
		load:       append([]float64(nil), p.load...),
		on:         make([][]ShardID, len(p.on)),
		pos:        append([]int(nil), p.pos...),
		unassigned: p.unassigned,
		vacant:     p.vacant,
		members:    p.members,
	}
	for m := range p.on {
		q.on[m] = append([]ShardID(nil), p.on[m]...)
	}
	return q
}

// Feasible reports whether every machine's static usage is within
// capacity, every shard is assigned, and no machine hosts two replicas of
// the same anti-affinity group.
func (p *Placement) Feasible() bool {
	if p.unassigned > 0 {
		return false
	}
	for m := range p.used {
		if !p.used[m].LEQ(p.c.Machines[m].Capacity.Add(vec.Uniform(vec.FitEps))) {
			return false
		}
	}
	_, _, n := p.replicaCollision()
	return n == 0
}

// replicaCollision finds a machine hosting more than one replica of an
// anti-affinity group, returning it with the group and the replica count;
// n is 0 when there is none. Shards are scanned in ID order, so with
// several collisions the one reported is the same on every call: that of
// the lowest shard ID involved in any.
func (p *Placement) replicaCollision() (m MachineID, g, n int) {
	for s, m := range p.home {
		if g := p.c.Shards[s].Group; g != 0 && m != Unassigned {
			if n := p.GroupCount(m, g); n > 1 {
				return m, g, n
			}
		}
	}
	return Unassigned, 0, 0
}

// Validate recomputes all aggregates from scratch and compares them with
// the incrementally maintained state, returning an error on any mismatch.
// It is used by tests and by debug assertions in the solver.
func (p *Placement) Validate() error {
	used := make([]vec.Vec, len(p.c.Machines))
	load := make([]float64, len(p.c.Machines))
	count := make([]int, len(p.c.Machines))
	unassigned := 0
	for s := range p.home {
		m := p.home[s]
		if m == Unassigned {
			unassigned++
			continue
		}
		sh := &p.c.Shards[s]
		used[m] = used[m].Add(sh.Static)
		load[m] += sh.Load
		count[m]++
	}
	if unassigned != p.unassigned {
		return fmt.Errorf("cluster: unassigned count %d, recomputed %d", p.unassigned, unassigned)
	}
	vacant := 0
	for m := range p.on {
		if len(p.on[m]) == 0 {
			vacant++
		}
	}
	if vacant != p.vacant {
		return fmt.Errorf("cluster: vacant count %d, recomputed %d", p.vacant, vacant)
	}
	for m := range used {
		if !used[m].AlmostEqual(p.used[m], 1e-6) {
			return fmt.Errorf("cluster: machine %d used %v, recomputed %v", m, p.used[m], used[m])
		}
		if math.Abs(load[m]-p.load[m]) > 1e-6 {
			return fmt.Errorf("cluster: machine %d load %g, recomputed %g", m, p.load[m], load[m])
		}
		if count[m] != len(p.on[m]) {
			return fmt.Errorf("cluster: machine %d hosts %d shards, recomputed %d", m, len(p.on[m]), count[m])
		}
	}
	for m := range p.on {
		for i, s := range p.on[m] {
			if p.home[s] != MachineID(m) {
				return fmt.Errorf("cluster: shard %d in on[%d] but home=%d", s, m, p.home[s])
			}
			if p.pos[s] != i {
				return fmt.Errorf("cluster: shard %d pos %d, want %d", s, p.pos[s], i)
			}
		}
	}
	return nil
}

// placementJSON is the serialized form of a placement: the cluster plus the
// assignment vector.
type placementJSON struct {
	Cluster    *Cluster    `json:"cluster"`
	Assignment []MachineID `json:"assignment"`
}

// Save writes the placement (cluster + assignment) as JSON to w.
func (p *Placement) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(placementJSON{Cluster: p.c, Assignment: p.home})
}

// SaveFile writes the placement as JSON to path.
func (p *Placement) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cluster: save placement: %w", err)
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		return fmt.Errorf("cluster: save placement %s: %w", path, err)
	}
	return f.Close()
}

// LoadPlacement reads a placement (cluster + assignment) from r.
func LoadPlacement(r io.Reader) (*Placement, error) {
	var pj placementJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("cluster: load placement: %w", err)
	}
	if pj.Cluster == nil {
		return nil, fmt.Errorf("cluster: load placement: missing cluster")
	}
	if err := pj.Cluster.Validate(); err != nil {
		return nil, err
	}
	return FromAssignment(pj.Cluster, pj.Assignment)
}

// LoadPlacementFile reads a placement from path.
func LoadPlacementFile(path string) (*Placement, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: load placement: %w", err)
	}
	defer f.Close()
	return LoadPlacement(f)
}
