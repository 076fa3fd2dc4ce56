package des

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"rexchange/internal/cluster"
	"rexchange/internal/ctl"
	"rexchange/internal/obs"
	"rexchange/internal/plan"
	"rexchange/internal/rng"
	"rexchange/internal/workload"
)

// loopDigest is what TestEventLoopPinned holds of one run: an FNV-1a over
// the Float64bits of every latency per phase in completion order, the
// drops, the event and arrival counts, an FNV-1a over the Next loads of
// every window, and the journal's SHA-256 when one is attached.
type loopDigest struct {
	Lat      [numPhases]uint64
	Drops    [numPhases]int
	Events   uint64
	Arrivals int
	Loads    uint64
	Journal  string
}

// hashFloats feeds xs' bits to h, little-endian.
func hashFloats(h hash.Hash64, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// runPinned serves eight 5 s windows of a diurnal trace over a generated
// fleet. Each window is advanced in two uneven Sleeps and then snapshotted
// with Next; one committed migration copy runs from window 2 to window 4,
// so all three phases see traffic.
func runPinned(t *testing.T, wcfg workload.Config, cfg Config, journal bool) loopDigest {
	t.Helper()
	inst, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: 40, BaseRate: 300, DiurnalAmp: 0.3, Period: 40, CostSigma: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, inst.Placement, tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var j *obs.Journal
	if journal {
		j = obs.NewJournal(&buf)
		s.AttachObs(nil, j)
	}
	mv := plan.Move{S: 0, From: inst.Placement.Assignment()[0]}
	mv.To = (mv.From + 1) % cluster.MachineID(len(inst.Cluster.Machines))
	ref := ctl.MoveRef{Round: 2, Seq: 0}
	loads := fnv.New64a()
	for w := 0; w < 8; w++ {
		t0 := float64(w) * cfg.Window
		switch w {
		case 2:
			s.MoveStarted(mv, ref, t0, t0+2*cfg.Window)
		case 4:
			s.MoveFinished(mv, ref, t0, true)
		}
		s.Sleep(0.3 * cfg.Window)
		s.Sleep(0.7 * cfg.Window)
		got, err := s.Next(t0, t0+cfg.Window)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(loads, got)
	}
	d := loopDigest{Drops: s.drops, Events: s.events, Arrivals: s.arrived, Loads: loads.Sum64()}
	for ph := range d.Lat {
		h := fnv.New64a()
		hashFloats(h, s.lat[ph])
		d.Lat[ph] = h.Sum64()
	}
	if journal {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		d.Journal = hex.EncodeToString(sum[:])
	}
	return d
}

// TestEventLoopPinned holds literals recorded before arrivals left the
// event heap and shard picks moved to a guide table: every event must
// still fire in the same order and every draw keep its value, so
// latencies, drops, counts, offered loads and the journal keep their bits.
func TestEventLoopPinned(t *testing.T) {
	fleetCfg := func(machines, shards, replicas int) workload.Config {
		w := workload.DefaultConfig()
		w.Machines, w.Shards, w.Replicas, w.Seed = machines, shards, replicas, 5
		return w
	}
	for _, tc := range []struct {
		name    string
		wcfg    workload.Config
		cfg     Config
		journal bool
		want    loopDigest
	}{
		{
			name: "static",
			wcfg: fleetCfg(12, 120, 1),
			cfg:  Config{Fanout: 8, TargetUtil: 0.6, Window: 5, CostSigma: 0.5, Seed: 11},
			want: loopDigest{Lat: [numPhases]uint64{0x3dc477bf2c46232, 0x951f3a395223ee3b, 0x90844d9ab7534cbd}, Events: 0x195c4, Arrivals: 12054, Loads: 0x57fc6f6d09018bdf},
		},
		{
			name: "drift and drops",
			wcfg: fleetCfg(12, 120, 1),
			cfg:  Config{Fanout: 8, TargetUtil: 0.9, Window: 5, CostSigma: 0.8, DriftSigma: 0.3, MaxQueue: 4, Seed: 12},
			want: loopDigest{Lat: [numPhases]uint64{0xd59fea377d26596f, 0x46b3ca35d9a2989a, 0xaeaaa577226c237f}, Drops: [numPhases]int{1937, 2089, 2705}, Events: 0xcf5a, Arrivals: 11881, Loads: 0x7e2cd2e2accfcfa7},
		},
		{
			name: "least-loaded replicas",
			wcfg: fleetCfg(12, 60, 2),
			cfg:  Config{Fanout: 6, TargetUtil: 0.7, Window: 5, CostSigma: 0.5, Routing: RouteLeastLoaded, Seed: 13},
			want: loopDigest{Lat: [numPhases]uint64{0x4641db103a6c37e6, 0x8b3d9744445c7b6c, 0x1f131186bd983462}, Events: 0x145f6, Arrivals: 11923, Loads: 0xedf4b90e3d70a8ce},
		},
		{
			name:    "traced",
			wcfg:    fleetCfg(12, 120, 1),
			cfg:     Config{Fanout: 8, TargetUtil: 0.7, Window: 5, CostSigma: 0.5, DriftSigma: 0.2, TraceSample: 0.3, Seed: 14},
			journal: true,
			want: loopDigest{Lat: [numPhases]uint64{0x4b4c27aef42c16a6, 0xe8241c62b4776a3, 0x87ae23ae644c50db}, Events: 0x18273, Arrivals: 12057, Loads: 0x4fd5ac998c216676,
				Journal: "3252e146466ab483ce27068291eaa71cc4cdd4b8b331e9497d651f9a770dddb5"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := runPinned(t, tc.wcfg, tc.cfg, tc.journal); got != tc.want {
				t.Errorf("event loop moved:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}

// floatSource makes rand.Float64 return the queued values in order: a
// math/rand Float64 is Int63()/2⁶³, exact for any float in [0, 1).
type floatSource struct{ fs []float64 }

func (f *floatSource) Int63() int64 {
	x := f.fs[0]
	f.fs = f.fs[1:]
	return int64(x * (1 << 63))
}

func (f *floatSource) Seed(int64) {}

// checkPicks compares pickShard against sort.SearchFloat64s, the search it
// replaced, for r = 0, r on and just below every prefix sum, r around
// every guide bucket's lower edge, and 2000 random r.
func checkPicks(t *testing.T, s *Sim, label string) {
	t.Helper()
	n := len(s.cum)
	total := s.cum[n-1]
	fs := []float64{0}
	for _, c := range s.cum {
		if f := c / total; f < 1 {
			fs = append(fs, f, math.Nextafter(f, 0))
		}
	}
	for k := 1; k < n; k++ {
		f := float64(k) / float64(n)
		fs = append(fs, math.Nextafter(f, 0), f, math.Nextafter(f, 1))
	}
	r := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < 2000; i++ {
		fs = append(fs, r.Float64())
	}
	s.workload = rand.New(&floatSource{fs: fs})
	for _, f := range fs {
		want := sort.SearchFloat64s(s.cum, f*total)
		if got := int(s.pickShard()); got != want {
			t.Fatalf("%s: r = %g·total picked %d, sort.SearchFloat64s gives %d", label, f, got, want)
		}
	}
}

// TestPickShardMatchesSearch: the guide-table walk returns the index
// sort.SearchFloat64s returns, for every r, with zero-weight runs at the
// front, middle and end of the fleet, and after 50 drift steps. Integer
// weights summing to a power of two make r land exactly on prefix sums.
func TestPickShardMatchesSearch(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8000} {
		for _, zeros := range []string{"none", "front", "middle", "end"} {
			if n == 1 && zeros != "none" {
				continue // a fleet with no load is rejected by New
			}
			s := bareSim([]float64{1}, n)
			run := max(1, n/4)
			lo := map[string]int{"none": n, "front": 0, "middle": (n - run) / 2, "end": n - run}[zeros]
			r := rand.New(rand.NewSource(int64(n)))
			sum, last := 0.0, -1
			for i := range s.weights {
				s.weights[i] = 0
				if i < lo || i >= lo+run {
					s.weights[i] = float64(1 + r.Intn(4))
					sum, last = sum+s.weights[i], i
				}
			}
			pow := math.Exp2(math.Ceil(math.Log2(sum)))
			s.weights[last] += pow - sum
			s.wtotal = pow
			s.rebuildCum()
			label := fmt.Sprintf("n=%d zeros=%s", n, zeros)
			checkPicks(t, s, label)

			s.cfg.DriftSigma = 0.5
			s.drift = rand.New(rand.NewSource(int64(n) + 1))
			for i := 0; i < 50; i++ {
				s.driftStep()
			}
			checkPicks(t, s, label+" drifted")

			// The walk is exact from any start, the guide only sets its
			// cost: starting a few entries late must step back to the same
			// index.
			for k := range s.guide {
				s.guide[k] = int32(min(int(s.guide[k])+3, n-1))
			}
			checkPicks(t, s, label+" late guide")
		}
	}
}

// TestArrivalMergeOrder: the pending window boundary, the arrivals read
// from the window's slice and the leg completions merge under (At, Kind,
// Seq).
func TestArrivalMergeOrder(t *testing.T) {
	// One machine whose running leg completes at t=5, a window boundary at
	// 5, and an arrival at exactly 5. The window fires first (the arrival
	// counts toward the window it opens), then the arrival (it meets the
	// running leg and is dropped by MaxQueue 1), then the leg completion.
	s := bareSim([]float64{1}, 1)
	s.cfg.MaxQueue = 1
	s.tr = &workload.Trace{Duration: 10} // no intensity: windows add no arrivals
	s.workload = s.streams.Stream(rng.StreamWorkload)
	enqueue(s, 0, s.allocQuery(0, 1), 0, 5)
	s.window = 5
	s.windowIdx = 1
	s.arrivals = []float64{5}
	s.Sleep(6)
	if s.drops[PhaseBefore] != 1 || len(s.lat[PhaseBefore]) != 1 {
		t.Errorf("arrival did not fire before the leg completion at its instant: drops %v, completed %d",
			s.drops, len(s.lat[PhaseBefore]))
	}
	if s.winArrivals != 1 || s.winDropped != 1 {
		t.Errorf("arrival fired before the window boundary at its instant: window counts %d arrived, %d dropped",
			s.winArrivals, s.winDropped)
	}

	// An arrival left over exactly on a boundary stays ahead of every
	// arrival the boundary generates.
	s = bareSim([]float64{1}, 1)
	s.tr = flatSimTrace(50, 10)
	s.workload = s.streams.Stream(rng.StreamWorkload)
	s.arrivals, s.next = []float64{4, 5}, 1
	s.windowEvent(5)
	if s.next != 0 || s.arrivals[0] != 5 || len(s.arrivals) < 2 || !sort.Float64sAreSorted(s.arrivals) {
		t.Fatalf("window at 5 with a leftover at 5: arrivals %v, cursor %d", s.arrivals[:min(len(s.arrivals), 4)], s.next)
	}
	n := len(s.arrivals)
	s.Sleep(5 + s.cfg.Window) // every arrival of [5, 15), not the boundary at 15
	if s.arrived != n || s.next != n {
		t.Errorf("fired %d of %d arrivals, cursor at %d", s.arrived, n, s.next)
	}
}

// BenchmarkEventLoop is sim_steady's event loop: fan-out 16, TargetUtil
// 0.15, no drift, 500 qps with a 0.2 diurnal swing, at 200 machines over
// 1600 shards (about 30 completions pending) and at sim_steady's own 1000
// machines over 8000 shards (about 160). One op is one 10 s window;
// ns/event divides the loop's time by the events it fired. The only
// allocations in steady state are the window's arrival slice and
// latency-record growth, so allocs/event rounds to zero.
func BenchmarkEventLoop(b *testing.B) {
	for _, size := range []struct{ machines, shards int }{{200, 1600}, {1000, 8000}} {
		b.Run(fmt.Sprintf("m%d_s%d", size.machines, size.shards), func(b *testing.B) {
			benchEventLoop(b, size.machines, size.shards)
		})
	}
}

func benchEventLoop(b *testing.B, machines, shards int) {
	wcfg := workload.DefaultConfig()
	wcfg.Machines, wcfg.Shards, wcfg.TargetFill = machines, shards, 0.85
	inst, err := workload.Generate(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: 1000, BaseRate: 500, DiurnalAmp: 0.2, Period: 1000, CostSigma: 0.5, Seed: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Fanout, cfg.TargetUtil = 16, 0.15
	s, err := New(cfg, inst.Placement, tr)
	if err != nil {
		b.Fatal(err)
	}
	s.Sleep(cfg.Window) // first window: queues and buffers reach steady state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := s.events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sleep(cfg.Window)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	fired := float64(s.events - events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/fired, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/fired, "allocs/event")
}
