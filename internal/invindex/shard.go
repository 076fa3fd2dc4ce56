package invindex

import (
	"fmt"
	"math/rand"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
)

// ShardedIndex is a document-partitioned index: every query fans out to
// all shards and results are merged — the architecture of large-scale
// search engines that the paper's load-balancing problem lives in.
type ShardedIndex struct {
	Shards []*Index
}

// BuildSharded partitions a corpus round-robin across n shards.
// Round-robin (rather than contiguous ranges) keeps shard content
// statistically similar while still letting sizes differ through document
// length variance, matching how engines spread crawl output.
func BuildSharded(docs [][]string, n int) (*ShardedIndex, error) {
	if n <= 0 {
		return nil, fmt.Errorf("invindex: shard count must be positive, got %d", n)
	}
	if len(docs) < n {
		return nil, fmt.Errorf("invindex: %d documents cannot fill %d shards", len(docs), n)
	}
	si := &ShardedIndex{Shards: make([]*Index, n)}
	for i := range si.Shards {
		si.Shards[i] = NewIndex()
	}
	for d, doc := range docs {
		si.Shards[d%n].Add(doc)
	}
	return si, nil
}

// Shard profile measurement parameters.
const (
	// profileTopK is the result depth per sample query.
	profileTopK = 10
	// bytesPerPosting scales postings into disk units (~1KiB per 1024
	// postings); memPerTerm scales vocabulary into memory units.
	bytesPerPosting = 1.0 / 1024
	memPerTerm      = 1.0 / 512
	// loadScale converts scanned postings per query into load units.
	loadScale = 1.0 / 1000
)

// ProfileShards measures each shard's static footprint (disk from the
// vbyte-compressed postings volume — how engines actually store them —
// memory from dictionary size) and dynamic load (postings scanned
// answering the sample queries) and returns cluster.Shard descriptors.
// This is the bridge between the search substrate and the rebalancing
// problem: shard profiles come from real index mechanics rather than
// synthetic draws.
func (si *ShardedIndex) ProfileShards(queries [][]string) ([]cluster.Shard, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("invindex: profile needs a sample workload")
	}
	scanned := make([]int, len(si.Shards))
	for _, q := range queries {
		for i, ix := range si.Shards {
			_, st := ix.SearchDAAT(q, profileTopK)
			scanned[i] += st.PostingsScanned
		}
	}
	shards := make([]cluster.Shard, len(si.Shards))
	for i, ix := range si.Shards {
		// same unit scale: compressed bytes vs 8 raw bytes/posting
		disk := float64(compressedBytes(ix)) / 8 * bytesPerPosting
		mem := float64(ix.NumTerms())*memPerTerm + disk*0.25 // hot postings cached
		shards[i] = cluster.Shard{
			ID:     cluster.ShardID(i),
			Name:   fmt.Sprintf("idx-shard-%03d", i),
			Static: vec.New(mem, disk, disk*0.1),
			Load:   float64(scanned[i]) * loadScale,
		}
	}
	return shards, nil
}

// ClusterFromProfiles builds a cluster and an initial placement that packs
// the profiled shards onto machines sized so that fill ≈ targetFill, using
// a random best-fit like production growth would. It is used by the F5
// experiment.
func ClusterFromProfiles(shards []cluster.Shard, machines int, targetFill float64, seed int64) (*cluster.Placement, error) {
	if machines <= 0 || targetFill <= 0 || targetFill >= 1 {
		return nil, fmt.Errorf("invindex: need positive machines and fill in (0,1)")
	}
	var total vec.Vec
	for i := range shards {
		total = total.Add(shards[i].Static)
	}
	capPer := total.Scale(1 / (targetFill * float64(machines)))
	c := &cluster.Cluster{Shards: shards}
	for m := 0; m < machines; m++ {
		c.Machines = append(c.Machines, cluster.Machine{
			ID:       cluster.MachineID(m),
			Name:     fmt.Sprintf("srch-m%03d", m),
			Capacity: capPer,
			Speed:    1,
		})
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// random-order first-fit: feasible but load-oblivious
	r := rand.New(rand.NewSource(seed))
	p := cluster.NewPlacement(c)
	order := r.Perm(len(shards))
	for _, si := range order {
		s := cluster.ShardID(si)
		placed := false
		for _, mi := range r.Perm(machines) {
			if p.PlaceChecked(s, cluster.MachineID(mi)) {
				placed = true
				break
			}
		}
		if !placed {
			// fall back to the emptiest machine even if order was unlucky
			best, bestFree := cluster.Unassigned, -1.0
			for m := 0; m < machines; m++ {
				id := cluster.MachineID(m)
				if !p.CanPlace(s, id) {
					continue
				}
				if free := p.Free(id).MaxDim(); free > bestFree {
					best, bestFree = id, free
				}
			}
			if best == cluster.Unassigned {
				return nil, fmt.Errorf("invindex: shard %d does not fit; lower targetFill", si)
			}
			if err := p.Place(s, best); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}
