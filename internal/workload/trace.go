package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Query is one query arrival: a timestamp (seconds from trace start) and a
// cost multiplier applied to every shard's base per-query work.
type Query struct {
	At   float64
	Cost float64
}

// Trace is a time-ordered sequence of query arrivals over [0, Duration).
type Trace struct {
	Queries  []Query
	Duration float64
}

// Rate returns the average arrival rate (queries/second).
func (t *Trace) Rate() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(len(t.Queries)) / t.Duration
}

// TraceConfig parameterizes query-trace generation. Arrivals follow a
// non-homogeneous Poisson process with a diurnal sinusoidal rate,
// λ(t) = BaseRate × (1 + DiurnalAmp·sin(2πt/Period)), generated by
// thinning. Costs are lognormal (heavy-tailed query work).
type TraceConfig struct {
	Duration   float64 // seconds
	BaseRate   float64 // mean arrivals/second
	DiurnalAmp float64 // [0,1): amplitude of the diurnal swing
	Period     float64 // seconds per diurnal cycle; 0 = flat rate
	CostMu     float64 // lognormal cost parameters
	CostSigma  float64
	Seed       int64
}

// DefaultTraceConfig returns a flat-rate one-minute trace at 100 qps.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{Duration: 60, BaseRate: 100, CostMu: 0, CostSigma: 0.5, Seed: 1}
}

// GenerateTrace builds a trace from cfg.
func GenerateTrace(cfg TraceConfig) (*Trace, error) {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"Duration", cfg.Duration}, {"BaseRate", cfg.BaseRate}, {"DiurnalAmp", cfg.DiurnalAmp}, {"Period", cfg.Period}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("workload: trace %s must be finite, got %g", f.name, f.v)
		}
	}
	if cfg.Duration <= 0 || cfg.BaseRate <= 0 {
		return nil, fmt.Errorf("workload: trace needs positive Duration and BaseRate")
	}
	if cfg.DiurnalAmp < 0 || cfg.DiurnalAmp >= 1 {
		return nil, fmt.Errorf("workload: DiurnalAmp must be in [0,1), got %g", cfg.DiurnalAmp)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	lambdaMax := cfg.BaseRate * (1 + cfg.DiurnalAmp)
	tr := &Trace{Duration: cfg.Duration}
	t := 0.0
	for {
		t += r.ExpFloat64() / lambdaMax
		if t >= cfg.Duration {
			break
		}
		// thinning: accept with probability λ(t)/λmax
		lam := cfg.BaseRate
		if cfg.Period > 0 {
			lam *= 1 + cfg.DiurnalAmp*math.Sin(2*math.Pi*t/cfg.Period)
		}
		if r.Float64()*lambdaMax > lam {
			continue
		}
		tr.Queries = append(tr.Queries, Query{At: t, Cost: LogNormal(r, cfg.CostMu, cfg.CostSigma)})
	}
	return tr, nil
}

// Window returns the sub-trace of arrivals in [t0, t1): queries with
// t0 ≤ At < t1, rebased so the window starts at 0, with Duration = t1−t0.
// Queries must be time-ordered (Generate and Save/Load preserve order).
// An inverted or empty window yields an empty trace of zero duration. The
// controller uses Window to feed incremental load snapshots instead of
// whole-trace replays.
func (t *Trace) Window(t0, t1 float64) *Trace {
	if t1 <= t0 {
		return &Trace{}
	}
	lo := sort.Search(len(t.Queries), func(i int) bool { return t.Queries[i].At >= t0 })
	hi := sort.Search(len(t.Queries), func(i int) bool { return t.Queries[i].At >= t1 })
	w := &Trace{Duration: t1 - t0}
	if lo < hi {
		w.Queries = make([]Query, hi-lo)
		for i, q := range t.Queries[lo:hi] {
			w.Queries[i] = Query{At: q.At - t0, Cost: q.Cost}
		}
	}
	return w
}

// Save writes the trace as CSV ("at,cost" per line, header first).
func (t *Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# duration=%g\nat,cost\n", t.Duration); err != nil {
		return err
	}
	for _, q := range t.Queries {
		if _, err := fmt.Fprintf(bw, "%.6f,%.6f\n", q.At, q.Cost); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveFile writes the trace as CSV to path.
func (t *Trace) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("workload: save trace: %w", err)
	}
	defer f.Close()
	if err := t.Save(f); err != nil {
		return fmt.Errorf("workload: save trace %s: %w", path, err)
	}
	return f.Close()
}

// LoadTrace reads a CSV trace written by Save.
func LoadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	tr := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "" || text == "at,cost":
			continue
		case strings.HasPrefix(text, "#"):
			if _, err := fmt.Sscanf(text, "# duration=%f", &tr.Duration); err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad header %q", line, text)
			}
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("workload: trace line %d: want 2 fields, got %d", line, len(parts))
		}
		at, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		cost, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		tr.Queries = append(tr.Queries, Query{At: at, Cost: cost})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: load trace: %w", err)
	}
	if tr.Duration == 0 && len(tr.Queries) > 0 {
		tr.Duration = tr.Queries[len(tr.Queries)-1].At
	}
	return tr, nil
}

// LoadTraceFile reads a CSV trace from path.
func LoadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: load trace: %w", err)
	}
	defer f.Close()
	return LoadTrace(f)
}
