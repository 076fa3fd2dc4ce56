package cluster

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rexchange/internal/vec"
)

func TestNewPlacementEmpty(t *testing.T) {
	c := testCluster()
	p := NewPlacement(c)
	if p.UnassignedCount() != c.NumShards() {
		t.Fatalf("UnassignedCount = %d", p.UnassignedCount())
	}
	for s := range c.Shards {
		if p.Home(ShardID(s)) != Unassigned {
			t.Errorf("shard %d should be unassigned", s)
		}
	}
	if len(p.VacantMachines()) != c.NumMachines() {
		t.Error("all machines should be vacant")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromAssignment(t *testing.T) {
	c := testCluster()
	p, err := FromAssignment(c, []MachineID{0, 0, 1, Unassigned})
	if err != nil {
		t.Fatal(err)
	}
	if p.Home(0) != 0 || p.Home(1) != 0 || p.Home(2) != 1 || p.Home(3) != Unassigned {
		t.Fatalf("homes = %v", p.Assignment())
	}
	if p.UnassignedCount() != 1 {
		t.Errorf("UnassignedCount = %d", p.UnassignedCount())
	}
	if got := p.Used(0); got != vec.New(5, 4, 3) {
		t.Errorf("Used(0) = %v", got)
	}
	if p.Load(0) != 8 || p.Load(1) != 8 || p.Load(2) != 0 {
		t.Errorf("loads = %v %v %v", p.Load(0), p.Load(1), p.Load(2))
	}
	if p.Utilization(1) != 4 { // 8 / speed 2
		t.Errorf("Utilization(1) = %v", p.Utilization(1))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromAssignmentErrors(t *testing.T) {
	c := testCluster()
	if _, err := FromAssignment(c, []MachineID{0}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := FromAssignment(c, []MachineID{0, 0, 0, 99}); err == nil {
		t.Error("expected invalid-machine error")
	}
}

func TestPlaceRemoveMove(t *testing.T) {
	c := testCluster()
	p := NewPlacement(c)
	if err := p.Place(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(0, 1); err == nil {
		t.Error("double place should fail")
	}
	if p.Count(2) != 1 || !p.IsVacant(0) {
		t.Error("counts wrong after place")
	}
	p.Move(0, 1)
	if p.Home(0) != 1 || p.Count(2) != 0 || p.Count(1) != 1 {
		t.Error("move bookkeeping wrong")
	}
	p.Move(0, 1) // no-op move
	if p.Count(1) != 1 {
		t.Error("self-move should be no-op")
	}
	if err := p.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove(0); err == nil {
		t.Error("double remove should fail")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCanPlaceAndChecked(t *testing.T) {
	c := testCluster()
	p := NewPlacement(c)
	// machine 2 capacity {4,4,4}; shard 2 static {4,4,4} exactly fits.
	if !p.CanPlace(2, 2) {
		t.Error("exact fit should be allowed")
	}
	if !p.PlaceChecked(2, 2) {
		t.Fatal("PlaceChecked should succeed")
	}
	// now shard 3 {1,1,1} does not fit on machine 2
	if p.CanPlace(3, 2) {
		t.Error("machine 2 is full")
	}
	if p.PlaceChecked(3, 2) {
		t.Error("PlaceChecked should fail on full machine")
	}
	if !p.MoveChecked(2, 0) {
		t.Error("MoveChecked to empty machine should succeed")
	}
	if p.Home(2) != 0 {
		t.Error("MoveChecked did not move")
	}
	// MoveChecked to current machine is trivially true.
	if !p.MoveChecked(2, 0) {
		t.Error("MoveChecked self should be true")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := testCluster()
	p, _ := FromAssignment(c, []MachineID{0, 1, 1, 2})
	q := p.Clone()
	q.Move(0, 2)
	if p.Home(0) != 0 {
		t.Error("clone mutation leaked into original")
	}
	if q.Home(0) != 2 {
		t.Error("clone move lost")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFeasible(t *testing.T) {
	c := testCluster()
	p, _ := FromAssignment(c, []MachineID{0, 0, 1, 1})
	if !p.Feasible() {
		t.Error("placement within capacity should be feasible")
	}
	// Overstuff machine 2 (cap {4,4,4}) with shards 0+2 (static {7,6,5}).
	q, _ := FromAssignment(c, []MachineID{2, 1, 2, 1})
	if q.Feasible() {
		t.Error("overloaded machine should be infeasible")
	}
	// Unassigned shard makes it infeasible too.
	r, _ := FromAssignment(c, []MachineID{0, 0, 1, Unassigned})
	if r.Feasible() {
		t.Error("partial placement should be infeasible")
	}
}

func TestShardsOnAndEach(t *testing.T) {
	c := testCluster()
	p, _ := FromAssignment(c, []MachineID{1, 1, 1, 0})
	got := p.ShardsOn(1)
	if len(got) != 3 {
		t.Fatalf("ShardsOn(1) = %v", got)
	}
	seen := map[ShardID]bool{}
	p.EachShardOn(1, func(s ShardID) { seen[s] = true })
	if !seen[0] || !seen[1] || !seen[2] {
		t.Errorf("EachShardOn missed shards: %v", seen)
	}
	// mutating the returned copy must not corrupt the placement
	got[0] = 99
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementSaveLoad(t *testing.T) {
	c := testCluster()
	p, _ := FromAssignment(c, []MachineID{0, 1, 1, 2})
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := LoadPlacement(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for s := range c.Shards {
		if q.Home(ShardID(s)) != p.Home(ShardID(s)) {
			t.Errorf("shard %d home mismatch", s)
		}
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/placement.json"
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlacementFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlacementFile(path + ".missing"); err == nil {
		t.Error("expected missing-file error")
	}
}

// TestSaveLoadRoundTrip checks that the placement format carries every
// machine and shard field of the cluster through a save and load.
func TestSaveLoadRoundTrip(t *testing.T) {
	c := testCluster()
	var buf bytes.Buffer
	if err := NewPlacement(c).Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := LoadPlacement(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := q.Cluster()
	if got.NumMachines() != c.NumMachines() || got.NumShards() != c.NumShards() {
		t.Fatalf("round trip size mismatch")
	}
	for i := range c.Machines {
		if got.Machines[i] != c.Machines[i] {
			t.Errorf("machine %d: %+v != %+v", i, got.Machines[i], c.Machines[i])
		}
	}
	for i := range c.Shards {
		if got.Shards[i] != c.Shards[i] {
			t.Errorf("shard %d: %+v != %+v", i, got.Shards[i], c.Shards[i])
		}
	}
}

func TestLoadPlacementRejectsInvalid(t *testing.T) {
	for name, in := range map[string]string{
		"mismatched machine ID": `{"cluster":{"machines":[{"id":3,"capacity":[1,1,1],"speed":1}],"shards":[]},"assignment":[]}`,
		"missing cluster":       `{"assignment":[]}`,
		"malformed JSON":        "not json",
	} {
		if _, err := LoadPlacement(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestQuickRandomOpsInvariant drives random place/move/remove sequences and
// checks the incrementally maintained aggregates against a full recompute.
func TestQuickRandomOpsInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nm, ns := 2+r.Intn(6), 1+r.Intn(20)
		c := &Cluster{}
		for m := 0; m < nm; m++ {
			c.Machines = append(c.Machines, Machine{
				ID: MachineID(m), Capacity: vec.Uniform(1e9), Speed: 1 + r.Float64(),
			})
		}
		for s := 0; s < ns; s++ {
			group := 0
			if r.Intn(2) == 0 {
				group = 1 + r.Intn(3) // some shards replicated
			}
			c.Shards = append(c.Shards, Shard{
				ID:     ShardID(s),
				Static: vec.New(r.Float64()*10, r.Float64()*10, r.Float64()*10),
				Load:   r.Float64() * 5,
				Group:  group,
			})
		}
		p := NewPlacement(c)
		for op := 0; op < 200; op++ {
			s := ShardID(r.Intn(ns))
			m := MachineID(r.Intn(nm))
			switch r.Intn(4) {
			case 0:
				if p.Home(s) == Unassigned {
					_ = p.Place(s, m)
				}
			case 1:
				p.Move(s, m)
			case 2:
				if p.Home(s) != Unassigned {
					_ = p.Remove(s)
				}
			case 3:
				// checked ops must respect anti-affinity
				if p.Home(s) == Unassigned {
					p.PlaceChecked(s, m)
				} else {
					p.MoveChecked(s, m)
				}
			}
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
