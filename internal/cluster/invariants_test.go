package cluster

import (
	"strings"
	"testing"

	"rexchange/internal/vec"
)

// groupedCluster is testCluster with shards 1 and 2 made replicas of the
// same logical shard, so replica-distinctness is exercised.
func groupedCluster() *Cluster {
	c := testCluster()
	c.Shards[1].Group = 7
	c.Shards[2].Group = 7
	return c
}

func TestCheckInvariantsCleanStates(t *testing.T) {
	c := groupedCluster()

	// Empty placement: all shards unassigned is a legal mid-solve state.
	p := NewPlacement(c)
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("empty placement: %v", err)
	}

	// Partial and complete placements built through the public API.
	if err := p.Place(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("partial placement: %v", err)
	}
	for s, m := range map[ShardID]MachineID{1: 0, 2: 1, 3: 2} {
		if err := p.Place(s, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("complete placement: %v", err)
	}
	p.Move(3, 1)
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after move: %v", err)
	}
}

func TestCheckInvariantsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p *Placement)
		wantSub string
	}{
		{
			name:    "stale used vector",
			corrupt: func(p *Placement) { p.used[0] = p.used[0].Add(vec.New(1, 0, 0)) },
			wantSub: "used",
		},
		{
			name:    "stale load aggregate",
			corrupt: func(p *Placement) { p.load[1] += 1 },
			wantSub: "load",
		},
		{
			name:    "home/on mismatch",
			corrupt: func(p *Placement) { p.home[0] = 1 },
			wantSub: "recomputed",
		},
		{
			name:    "unassigned counter drift",
			corrupt: func(p *Placement) { p.unassigned++ },
			wantSub: "unassigned",
		},
		{
			name: "capacity overflow",
			corrupt: func(p *Placement) {
				// Force shard 2 (static 4,4,4) onto the small machine 2
				// (capacity 4,4,4) on top of shard 3, bypassing CanPlace.
				p.unplace(2)
				p.place(2, 2)
			},
			wantSub: "exceeds capacity",
		},
		{
			name: "replica collision",
			corrupt: func(p *Placement) {
				// Both replicas of group 7 onto machine 0, bypassing CanPlace.
				p.unplace(2)
				p.place(2, 0)
			},
			wantSub: "replicas of group 7",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := groupedCluster()
			p, err := FromAssignment(c, []MachineID{0, 0, 1, 2})
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(p)
			err = p.CheckInvariants()
			if err == nil {
				t.Fatal("CheckInvariants passed on corrupted placement")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestMustInvariantsPanics(t *testing.T) {
	c := testCluster()
	p, err := FromAssignment(c, []MachineID{0, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	p.MustInvariants("test hook") // clean: must not panic

	p.load[0] += 5
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustInvariants did not panic on corrupted placement")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "test hook") {
			t.Errorf("panic %v does not carry the context string", r)
		}
	}()
	p.MustInvariants("test hook")
}

// TestCheckInvariantsCollisionOrder pins which anti-affinity violation is
// reported when a machine hosts two colliding groups: the group of the
// lowest shard ID, on every call (the scan used to range over a map).
func TestCheckInvariantsCollisionOrder(t *testing.T) {
	c := &Cluster{
		Machines: []Machine{{ID: 0, Capacity: vec.Uniform(100), Speed: 1}},
		Shards: []Shard{
			{ID: 0, Static: vec.Uniform(1), Group: 9},
			{ID: 1, Static: vec.Uniform(1), Group: 4},
			{ID: 2, Static: vec.Uniform(1), Group: 4},
			{ID: 3, Static: vec.Uniform(1), Group: 9},
		},
	}
	p := NewPlacement(c)
	for s := range c.Shards {
		if err := p.Place(ShardID(s), 0); err != nil {
			t.Fatal(err)
		}
	}
	const want = "cluster: machine 0 hosts 2 replicas of group 9"
	for i := 0; i < 50; i++ {
		if err := p.CheckInvariants(); err == nil || err.Error() != want {
			t.Fatalf("call %d: CheckInvariants = %v, want %q", i, err, want)
		}
	}
}
