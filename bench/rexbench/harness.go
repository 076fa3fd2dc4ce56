package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const mb = 1e6 // every MB in this harness is 10^6 bytes

// outcome is what one repetition of a workload's timed region produced.
type outcome struct {
	work      float64           // units of the workload's own work (events, iterations, MB, klines)
	attempted int               // operations that could fail
	failed    int               // operations that did
	digests   map[string]string // SHA-256 of deterministic outputs; equal across repetitions
	layer     values            // outcome and per-layer numbers the repetition measured itself
	notes     []string          // context printed beside the numbers (sample counts, absent phases)
	art       any               // the workload's own artifacts, for its check and probes

	// A workload whose timed region runs in a child process (lint_module)
	// reports the child's memory here; zero means the harness measures
	// its own process.
	allocMB, peakRSSMB float64
}

// bench is one named set of inputs and the timed region over them.
type bench interface {
	// setup builds the inputs from the seed. The harness calls it several
	// times to report a median; the last call's inputs are the ones used.
	setup() error
	// setupLayer reports the per-layer times of the last setup.
	setupLayer() values
	// warmup runs the workload once, untimed, through the product's own
	// entry point where it has one (des.RunCampaign); its digests are the
	// reference every later repetition must reproduce.
	warmup() (*outcome, error)
	// rep runs the timed region once. t is nil except on the traced
	// repetition, where the workload decorates the program's seams and
	// records spans.
	rep(t *tracer) (*outcome, error)
	// check is the correctness gate over one repetition, run untimed.
	check(g *gate, o *outcome)
	// probes calls single exported functions in isolation, after the
	// traced repetition o, adding per-layer numbers to m. wallS is the
	// untraced median the traced pass is compared with.
	probes(o *outcome, wallS float64, m values) error
}

// gate collects failed correctness checks by name.
type gate struct{ failures []string }

func (g *gate) check(ok bool, name, format string, args ...any) {
	if !ok {
		g.failures = append(g.failures, name+": "+fmt.Sprintf(format, args...))
	}
}

// runOpts selects one run: one workload, traced or not.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64 // measure until this much timed-region time has passed; 0 = use reps
	reps     int     // timed repetitions when seconds is 0
	trace    bool
	quick    bool
	outDir   string // span traces go here, and the run's scratch directory
	tmpDir   string // scratch directory of this run, set and removed by runWorkload
}

// runDetail is everything one run measured. The contract's result line is
// a projection of it; the driver mode keeps the whole thing.
type runDetail struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Trace     bool                  `json:"trace"`
	Metrics   map[string]metricStat `json:"metrics"`
	Digests   map[string]string     `json:"digests"`
	Correct   bool                  `json:"correct"`
	Failures  []string              `json:"failures,omitempty"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Notes     []string              `json:"notes,omitempty"`
}

// measured is one timed repetition as the harness saw it.
type measured struct {
	wallS, allocMB float64
	out            *outcome
}

// timeRep runs one repetition between a forced collection and two
// MemStats reads, so alloc_mb is the repetition's own.
func timeRep(w bench, t *tracer) (measured, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	root := t.begin("harness.rep")
	out, err := w.rep(t)
	t.end(root)
	wall := time.Since(start)
	if err != nil {
		return measured{}, err
	}
	runtime.ReadMemStats(&m1)
	alloc := float64(m1.TotalAlloc-m0.TotalAlloc) / mb
	if out.allocMB > 0 {
		alloc = out.allocMB
	}
	return measured{wallS: wall.Seconds(), allocMB: alloc, out: out}, nil
}

// runWorkload is the run protocol: set-up (several times, median), one
// untimed warm-up, timed repetitions with the harness's spans off, and on
// a traced run one more repetition with decorators and spans on followed
// by the isolated probes. One run measures one input, generated from
// o.seed.
func runWorkload(o runOpts) (*runDetail, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if o.tmpDir, err = os.MkdirTemp(o.outDir, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.tmpDir)
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	d := &runDetail{Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Metrics: make(map[string]metricStat), Digests: make(map[string]string)}
	g := &gate{}

	// Set-up runs three times and, when it is short, until half a second
	// of it has been seen, so setup_s is a steady median.
	var setupS []float64
	for total := 0.0; ; {
		n := len(setupS)
		if n >= 25 || (n >= 3 && total >= 0.5) || (n >= 1 && (o.quick || o.trace)) {
			break
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", o.workload, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		total += setupS[n]
	}

	// The warm-up sets the reference digests.
	checkRep := func(what string, out *outcome) {
		w.check(g, out)
		for name, v := range out.digests {
			if _, ok := d.Digests[name]; !ok {
				d.Digests[name] = v
			}
			g.check(d.Digests[name] == v, "digest."+name, "%s repetition differs from the first: %s vs %s", what, v, d.Digests[name])
		}
	}
	warm, err := w.warmup()
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", o.workload, err)
	}
	checkRep("warm-up", warm)

	seconds, reps, minReps := o.seconds, o.reps, 3
	if o.trace {
		// The traced run needs an untraced median only as the base of
		// the overhead ratio.
		seconds, reps, minReps = seconds/2, (reps+1)/2, 2
	}
	var wallS, allocMB, workPerS []float64
	var last *outcome
	for spent := 0.0; ; {
		n := len(wallS)
		m, err := timeRep(w, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", o.workload, n, err)
		}
		checkRep("timed", m.out)
		m.out.art = nil // or the next repetition runs on a heap that holds this one's outputs
		wallS = append(wallS, m.wallS)
		allocMB = append(allocMB, m.allocMB)
		workPerS = append(workPerS, m.out.work/m.wallS)
		d.Attempted += m.out.attempted
		d.Failed += m.out.failed
		last = m.out
		spent += m.wallS
		n++
		if o.quick || (seconds > 0 && spent >= seconds && n >= minReps) || (seconds <= 0 && n >= reps) {
			break
		}
	}

	// Memory is read before the traced repetition and the probes add
	// theirs.
	rss := peakRSSMB()
	if last.peakRSSMB > 0 {
		rss = last.peakRSSMB
	}
	d.Metrics["peak_rss_mb"] = metricStat{Value: rss, Unit: "MB", Q1: rss, Q3: rss, N: 1}
	d.Metrics["alloc_mb"] = summarise(allocMB, "MB")
	if !o.trace {
		d.Metrics["wall_s"] = summarise(wallS, "s")
		d.Metrics["setup_s"] = summarise(setupS, "s")
		d.Metrics["work_per_s"] = summarise(workPerS, "1/s")
	} else {
		t := newTracer(o.workload, len(wallS)+1)
		m, err := timeRep(w, t)
		if err != nil {
			return nil, fmt.Errorf("%s: traced repetition: %w", o.workload, err)
		}
		checkRep("traced", m.out)
		layer := values{}
		for k, v := range w.setupLayer() {
			layer[k] = v
		}
		for k, v := range m.out.layer {
			layer[k] = v
		}
		spanMetrics(t.spans, layer)
		layer["harness.trace_overhead_ratio"] = m.wallS / median(wallS)
		layer["harness.layer_coverage"] = layerCoverage(t.spans)
		if m.out.attempted > 0 {
			layer["fail_share"] = float64(m.out.failed) / float64(m.out.attempted)
		}
		if err := w.probes(m.out, median(wallS), layer); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", o.workload, err)
		}
		for _, spec := range perLayer {
			if _, ok := d.Metrics[spec.Name]; !ok {
				v := layer[spec.Name] // a layer this workload never enters reads 0
				d.Metrics[spec.Name] = metricStat{Value: v, Unit: spec.Unit, Q1: v, Q3: v, N: 1}
			}
		}
		for k := range layer {
			if _, ok := specs[k]; !ok {
				return nil, fmt.Errorf("%s: metric %q is not in the vocabulary", o.workload, k)
			}
		}
		if err := writeSpans(filepath.Join(o.outDir, "trace-"+o.workload+".jsonl"), t.spans); err != nil {
			return nil, err
		}
	}
	d.Notes = last.notes
	g.check(d.Failed == 0, "fail_share", "%d of %d operations failed", d.Failed, d.Attempted)
	d.Correct = len(g.failures) == 0
	d.Failures = g.failures
	return d, nil
}

// spanMetrics turns span totals into the metrics named after them:
// "des.sleep" feeds des.sleep_s and des.sleep_calls, and ctl.run's self
// time is ctl.self_s.
func spanMetrics(spans []span, m values) {
	total, count := totalTimes(spans)
	for name, s := range total {
		if _, ok := specs[name+"_s"]; ok {
			m[name+"_s"] = s
		}
		if _, ok := specs[name+"_calls"]; ok {
			m[name+"_calls"] = float64(count[name])
		}
	}
	if self, ok := selfTimes(spans)["ctl.run"]; ok {
		m["ctl.self_s"] = self
	}
}

// peakRSSMB reads this process's high-water resident set from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / mb
			}
		}
	}
	return 0
}

// printDetail writes every metric of a run by name and unit, in
// vocabulary order; on a traced run, layers the workload never entered
// are left out.
func printDetail(d *runDetail) {
	for _, spec := range append(append(append([]metricSpec(nil), untraced...), outcomes...), layers...) {
		m, ok := d.Metrics[spec.Name]
		switch {
		case !ok || (d.Trace && m.Value == 0):
		case m.N > 1:
			fmt.Printf("%-22s %-36s %14.6g %-7s q1 %.6g q3 %.6g n %d\n", d.Workload, spec.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		default:
			fmt.Printf("%-22s %-36s %14.6g %s\n", d.Workload, spec.Name, m.Value, m.Unit)
		}
	}
	for _, note := range d.Notes {
		fmt.Printf("%-22s note: %s\n", d.Workload, note)
	}
	for _, f := range d.Failures {
		fmt.Printf("%-22s FAILED %s\n", d.Workload, f)
	}
}
