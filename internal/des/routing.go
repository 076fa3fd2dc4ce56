package des

import "rexchange/internal/cluster"

// Routing selects how a query leg picks among the replicas of a logical
// shard (the shards sharing a nonzero cluster.Shard.Group).
type Routing int

// Routing policies.
const (
	// RouteStatic serves every leg on the shard that was sampled: each
	// replica carries exactly its own popularity share.
	RouteStatic Routing = iota
	// RouteRoundRobin rotates a group's legs across its replicas.
	RouteRoundRobin
	// RouteLeastLoaded sends each leg to the replica whose machine has
	// the fewest legs queued or running (join-the-shortest-queue); ties
	// go to the lowest shard ID.
	RouteLeastLoaded
)

// String names the routing policy.
func (r Routing) String() string {
	switch r {
	case RouteStatic:
		return "static"
	case RouteRoundRobin:
		return "round-robin"
	case RouteLeastLoaded:
		return "least-loaded"
	default:
		return "routing(?)"
	}
}

// replicaGroup is one logical shard: its replicas in shard-ID order and
// the round-robin cursor.
type replicaGroup struct {
	replicas []cluster.ShardID
	next     int
}

// indexGroups maps every grouped shard to its replicaGroup, visiting
// shards in ID order so replica order and tie-breaks never depend on map
// iteration. It returns nil when the fleet has no replica groups.
func indexGroups(shards []cluster.Shard) []*replicaGroup {
	groupOf := make([]*replicaGroup, len(shards))
	byID := map[int]*replicaGroup{}
	for i := range shards {
		gid := shards[i].Group
		if gid == 0 {
			continue
		}
		g := byID[gid]
		if g == nil {
			g = &replicaGroup{}
			byID[gid] = g
		}
		g.replicas = append(g.replicas, cluster.ShardID(i))
		groupOf[i] = g
	}
	if len(byID) == 0 {
		return nil
	}
	return groupOf
}

// route returns the replica that serves a leg sampled for shard sh.
// Called only when groupOf is non-nil, i.e. Routing is not static.
func (s *Sim) route(sh cluster.ShardID) cluster.ShardID {
	g := s.groupOf[sh]
	if g == nil {
		return sh
	}
	if s.cfg.Routing == RouteRoundRobin {
		pick := g.replicas[g.next]
		g.next = (g.next + 1) % len(g.replicas)
		return pick
	}
	best := g.replicas[0]
	depth := s.machines[s.home[best]].depth()
	for _, r := range g.replicas[1:] {
		if d := s.machines[s.home[r]].depth(); d < depth {
			best, depth = r, d
		}
	}
	return best
}
