package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rexchange/internal/cluster"
	"rexchange/internal/vec"
)

// MachineTier describes one hardware generation in a heterogeneous fleet.
type MachineTier struct {
	Capacity vec.Vec // static capacity per machine of this tier
	Speed    float64 // load-serving speed
	Weight   float64 // relative share of the fleet
}

// Config parameterizes instance generation.
type Config struct {
	// Machines is the fleet size (excluding exchange machines, which are
	// added later via Cluster.WithExchange).
	Machines int
	// Tiers describes the hardware mix. Empty means one homogeneous tier
	// with capacity {100,100,100} and speed 1.
	Tiers []MachineTier

	// Shards is the shard population size.
	Shards int
	// SizeSigma is the log-space spread of lognormal shard memory size
	// before rescaling (heavier tails as it grows).
	SizeSigma float64
	// LoadSkew is the Zipf exponent of shard query loads (0 = uniform,
	// ~0.8-1.2 = realistic search-traffic skew).
	LoadSkew float64
	// LoadSizeCorr in [0,1] mixes size-proportional load with pure
	// popularity: load_i = corr·sizeShare_i + (1−corr)·zipfShare_i.
	LoadSizeCorr float64
	// Replicas expands every logical shard into this many replicas in one
	// anti-affinity group (distinct machines required), each carrying an
	// equal split of the logical shard's load and the full static
	// footprint. ≤1 means unreplicated. Shards counts logical shards;
	// the generated cluster has Shards×Replicas physical shards.
	Replicas int

	// TargetFill is the fraction of total static capacity occupied by
	// shards (the "stringency" of the environment; the paper's regime is
	// high fill, ≥ 0.8).
	TargetFill float64

	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns a medium synthetic instance configuration.
func DefaultConfig() Config {
	return Config{
		Machines:     100,
		Shards:       1500,
		SizeSigma:    0.8,
		LoadSkew:     0.9,
		LoadSizeCorr: 0.4,
		TargetFill:   0.8,
		Seed:         1,
	}
}

// Generator constants no caller varies.
const (
	// sizeMu is the log-space mean of shard memory size before rescaling.
	sizeMu = 0
	// diskPerMem and netPerMem derive a shard's disk and net demand from
	// its memory size.
	diskPerMem, netPerMem = 2.0, 0.5
	// maxShardLoadFrac caps one shard's load at this fraction of an
	// average machine's speed (production engines replica-split hotter
	// shards; this model is single-copy).
	maxShardLoadFrac = 0.4
	// maxShardSizeFrac caps one shard's static footprint at this fraction
	// of the smallest machine's capacity (engines split oversized shards
	// when indexes grow). Without the cap, heavy lognormal tails make
	// high-fill instances unpackable.
	maxShardSizeFrac = 0.25
	// meanUtil is the cluster-wide query load per unit of serving speed.
	meanUtil = 0.6
)

// RealisticConfig returns a configuration modeled on the stylized facts of
// production search clusters: three hardware generations, heavier size
// tails, stronger popularity skew, and very high fill. It is the stand-in
// for the paper's "real data from actual datacenters".
func RealisticConfig() Config {
	cfg := DefaultConfig()
	cfg.Machines = 200
	cfg.Shards = 4000
	cfg.SizeSigma = 1.1
	cfg.LoadSkew = 1.1
	cfg.LoadSizeCorr = 0.6
	cfg.TargetFill = 0.88
	cfg.Tiers = []MachineTier{
		{Capacity: vec.New(64, 512, 10), Speed: 1.0, Weight: 0.5},   // old gen
		{Capacity: vec.New(128, 1024, 25), Speed: 1.8, Weight: 0.3}, // mid gen
		{Capacity: vec.New(256, 2048, 40), Speed: 3.0, Weight: 0.2}, // new gen
	}
	return cfg
}

// validate normalizes and sanity-checks the configuration.
func (cfg *Config) validate() error {
	if cfg.Machines <= 0 {
		return fmt.Errorf("workload: Machines must be positive, got %d", cfg.Machines)
	}
	if cfg.Shards <= 0 {
		return fmt.Errorf("workload: Shards must be positive, got %d", cfg.Shards)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"TargetFill", cfg.TargetFill}, {"LoadSkew", cfg.LoadSkew}, {"SizeSigma", cfg.SizeSigma}, {"LoadSizeCorr", cfg.LoadSizeCorr}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: %s must be finite, got %g", f.name, f.v)
		}
	}
	if !(cfg.TargetFill > 0 && cfg.TargetFill < 1) {
		return fmt.Errorf("workload: TargetFill must be in (0,1), got %g", cfg.TargetFill)
	}
	if !(cfg.LoadSizeCorr >= 0 && cfg.LoadSizeCorr <= 1) {
		return fmt.Errorf("workload: LoadSizeCorr must be in [0,1], got %g", cfg.LoadSizeCorr)
	}
	if len(cfg.Tiers) == 0 {
		cfg.Tiers = []MachineTier{{Capacity: vec.New(100, 100, 100), Speed: 1, Weight: 1}}
	}
	for i, t := range cfg.Tiers {
		if math.IsNaN(t.Speed) || math.IsInf(t.Speed, 0) {
			return fmt.Errorf("workload: tier %d Speed must be finite, got %g", i, t.Speed)
		}
		if math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) {
			return fmt.Errorf("workload: tier %d Weight must be finite, got %g", i, t.Weight)
		}
		if !(t.Speed > 0) || !(t.Weight > 0) {
			return fmt.Errorf("workload: tier %d has non-positive speed/weight", i)
		}
		for _, x := range t.Capacity {
			if !(x > 0) || math.IsInf(x, 1) {
				return fmt.Errorf("workload: tier %d Capacity must be finite and positive in every dimension, got %v", i, t.Capacity)
			}
		}
	}
	return nil
}

// Instance is a generated problem: the cluster and an initial feasible (but
// load-imbalanced) placement, as a rebalancer would observe it.
type Instance struct {
	Cluster   *cluster.Cluster
	Placement *cluster.Placement
}

// Generate builds an instance from cfg. The initial placement is produced
// by a static-space best-fit that ignores load — mimicking incremental
// index growth — so it is statically feasible yet load-imbalanced, which is
// exactly the state the paper's rebalancer starts from.
func Generate(cfg Config) (*Instance, error) {
	c, r, err := generateCluster(cfg)
	if err != nil {
		return nil, err
	}
	p, err := initialPlacement(r, c)
	if err != nil {
		return nil, err
	}
	return &Instance{Cluster: c, Placement: p}, nil
}

// generateCluster builds the machines and shards of cfg's instance, and
// returns the random stream positioned where the initial placement draws.
func generateCluster(cfg Config) (*cluster.Cluster, *rand.Rand, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	c := &cluster.Cluster{}
	// --- machines: deal tiers proportionally, then shuffle identities.
	tierOf := dealTiers(r, cfg.Machines, cfg.Tiers)
	for m := 0; m < cfg.Machines; m++ {
		t := cfg.Tiers[tierOf[m]]
		c.Machines = append(c.Machines, cluster.Machine{
			ID:       cluster.MachineID(m),
			Name:     fmt.Sprintf("m%03d", m),
			Capacity: t.Capacity,
			Speed:    t.Speed,
		})
	}

	// --- shard sizes: lognormal memory, correlated disk/net, rescaled so
	// the total static demand hits TargetFill of total capacity in the
	// tightest dimension.
	rawMem := make([]float64, cfg.Shards)
	for i := range rawMem {
		rawMem[i] = LogNormal(r, sizeMu, cfg.SizeSigma)
	}
	totCap := c.TotalCapacity()
	// per-dimension multiplier on memory units
	dimMul := vec.New(1, diskPerMem, netPerMem)
	var rawTotal vec.Vec
	for _, m := range rawMem {
		rawTotal = rawTotal.Add(dimMul.Scale(m))
	}
	// scale so that max_d rawTotal[d]*scale / totCap[d] == TargetFill,
	// accounting for each logical shard being materialized Replicas times.
	repScale := 1.0
	if cfg.Replicas > 1 {
		repScale = float64(cfg.Replicas)
	}
	scale := cfg.TargetFill / (repScale * rawTotal.MaxRatio(totCap))
	for i := range rawMem {
		rawMem[i] *= scale
	}
	// cap oversized shards (in memory units; all dims scale together via
	// dimMul), water-filling the excess to preserve total fill.
	memCap := math.Inf(1)
	for m := range c.Machines {
		for d := 0; d < vec.NumResources; d++ {
			if dimMul[d] <= 0 {
				continue
			}
			if lim := c.Machines[m].Capacity[d] / dimMul[d]; lim < memCap {
				memCap = lim
			}
		}
	}
	if err := capLoads(rawMem, maxShardSizeFrac*memCap); err != nil {
		return nil, nil, fmt.Errorf("workload: shard sizes cannot fit under cap: %w", err)
	}

	// --- shard loads: Zipf popularity blended with size share.
	zipf := ZipfWeights(cfg.Shards, cfg.LoadSkew)
	// Popularity rank should not align with generation order; permute.
	perm := Shuffled(r, cfg.Shards)
	memTotal := 0.0
	for _, m := range rawMem {
		memTotal += m
	}
	totalLoad := meanUtil * c.TotalSpeed()
	corr := cfg.LoadSizeCorr
	loads := make([]float64, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		share := corr*(rawMem[i]/memTotal) + (1-corr)*zipf[perm[i]]
		loads[i] = share * totalLoad
	}
	if err := capLoads(loads, maxShardLoadFrac*c.TotalSpeed()/float64(cfg.Machines)); err != nil {
		return nil, nil, err
	}
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	if replicas > cfg.Machines {
		return nil, nil, fmt.Errorf("workload: %d replicas cannot be spread over %d machines",
			replicas, cfg.Machines)
	}
	for i := 0; i < cfg.Shards; i++ {
		for rep := 0; rep < replicas; rep++ {
			id := cluster.ShardID(len(c.Shards))
			sh := cluster.Shard{
				ID:     id,
				Name:   fmt.Sprintf("s%05d", i),
				Static: dimMul.Scale(rawMem[i]),
				Load:   loads[i] / float64(replicas),
			}
			if replicas > 1 {
				sh.Name = fmt.Sprintf("s%05d-r%d", i, rep)
				sh.Group = i + 1
			}
			c.Shards = append(c.Shards, sh)
		}
	}

	if err := c.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: generated invalid cluster: %w", err)
	}
	return c, r, nil
}

// capLoads water-fills loads under a per-shard cap, preserving the total:
// excess above the cap is redistributed proportionally onto shards with
// headroom, iterating until it drains. Production shards are replica-split
// before they dominate a whole machine; this reproduces that invariant.
// When the population is too small for the cap to be satisfiable (tiny
// instances), the cap is relaxed to the minimum feasible level.
func capLoads(loads []float64, cap float64) error {
	total := 0.0
	for _, l := range loads {
		total += l
	}
	if minCap := total / (0.98 * float64(len(loads))); cap < minCap {
		cap = minCap
	}
	for iter := 0; iter < 50; iter++ {
		excess := 0.0
		headroom := 0.0
		for _, l := range loads {
			if l > cap {
				excess += l - cap
			} else {
				headroom += cap - l
			}
		}
		if excess < 1e-12*total {
			return nil
		}
		for i, l := range loads {
			if l > cap {
				loads[i] = cap
			} else {
				loads[i] = l + excess*(cap-l)/headroom
			}
		}
	}
	return nil
}

// PerturbLoads returns a copy of c whose shard loads are multiplied by
// lognormal noise (popularity drift between rebalancing rounds) and
// renormalized so the cluster-wide total load is unchanged. Replica groups
// drift together: all replicas of a logical shard keep equal loads.
func PerturbLoads(c *cluster.Cluster, sigma float64, seed int64) *cluster.Cluster {
	r := rand.New(rand.NewSource(seed))
	nc := &cluster.Cluster{
		Machines: c.Machines,
		Shards:   append([]cluster.Shard(nil), c.Shards...),
	}
	// one multiplier per group (or per shard when ungrouped)
	mult := map[int]float64{}
	oldTotal, newTotal := 0.0, 0.0
	for i := range nc.Shards {
		sh := &nc.Shards[i]
		oldTotal += sh.Load
		m := 0.0
		if sh.Group != 0 {
			var ok bool
			if m, ok = mult[sh.Group]; !ok {
				m = LogNormal(r, 0, sigma)
				mult[sh.Group] = m
			}
		} else {
			m = LogNormal(r, 0, sigma)
		}
		sh.Load *= m
		newTotal += sh.Load
	}
	if newTotal > 0 {
		k := oldTotal / newTotal
		for i := range nc.Shards {
			nc.Shards[i].Load *= k
		}
	}
	// Re-apply the per-shard load cap: engines split shards whose
	// popularity outgrows a machine, so compounding drift must not create
	// un-placeable hot shards. Per-group equality survives because equal
	// loads receive equal water-fill adjustments.
	loads := make([]float64, len(nc.Shards))
	for i := range nc.Shards {
		loads[i] = nc.Shards[i].Load
	}
	if err := capLoads(loads, 0.4*nc.TotalSpeed()/float64(len(nc.Machines))); err == nil {
		for i := range nc.Shards {
			nc.Shards[i].Load = loads[i]
		}
	}
	return nc
}

// dealTiers assigns a tier index to each machine, proportional to weights,
// with a random shuffle.
func dealTiers(r *rand.Rand, n int, tiers []MachineTier) []int {
	wsum := 0.0
	for _, t := range tiers {
		wsum += t.Weight
	}
	out := make([]int, 0, n)
	for ti := range tiers {
		cnt := int(float64(n) * tiers[ti].Weight / wsum)
		for i := 0; i < cnt; i++ {
			out = append(out, ti)
		}
	}
	for len(out) < n { // rounding remainder goes to the first tier
		out = append(out, 0)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}

// initialPlacement packs shards by static best-fit in random arrival order,
// ignoring load. Mimics organic index growth: feasible statically,
// imbalanced in load. Each shard goes to the machine of least slack that
// can take it, the lowest machine ID among equals (fitIndex).
func initialPlacement(r *rand.Rand, c *cluster.Cluster) (*cluster.Placement, error) {
	p := cluster.NewPlacement(c)
	order := Shuffled(r, c.NumShards())
	fit := newFitIndex(p)
	for _, si := range order {
		if err := fit.place(cluster.ShardID(si)); err != nil {
			return nil, err
		}
	}
	// Randomized best-fit is *too* good at spreading load when loads are
	// near-uniform; shuffle some load-heavy shards together to recreate the
	// organic hotspot pattern rebalancers see in practice.
	injectHotspots(r, p)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// injectHotspots concentrates some of the hottest shards onto a few
// machines (subject to static feasibility), creating the load skew the
// rebalancer must fix.
func injectHotspots(r *rand.Rand, p *cluster.Placement) {
	c := p.Cluster()
	n := c.NumShards()
	if n < 4 || c.NumMachines() < 4 {
		return
	}
	// hottest 10% of shards
	hot := make([]cluster.ShardID, n)
	for i := range hot {
		hot[i] = cluster.ShardID(i)
	}
	sort.Slice(hot, func(i, j int) bool { return c.Shards[hot[i]].Load > c.Shards[hot[j]].Load })
	hot = hot[:n/10+1]
	// target machines: a random 15% of the fleet
	nTargets := c.NumMachines()/7 + 1
	targets := Shuffled(r, c.NumMachines())[:nTargets]
	for i, s := range hot {
		m := cluster.MachineID(targets[i%len(targets)])
		if p.Home(s) == m {
			continue
		}
		p.MoveChecked(s, m) // best-effort: skip if it doesn't fit
	}
}
