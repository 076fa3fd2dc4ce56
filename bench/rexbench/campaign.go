package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rexchange/internal/cluster"
	"rexchange/internal/core"
	"rexchange/internal/ctl"
	"rexchange/internal/des"
	"rexchange/internal/obs"
	"rexchange/internal/plan"
	"rexchange/internal/workload"
)

// campaignWL is the four workloads built on des campaigns: sim_steady,
// campaign_closed_loop and campaign_traced time the campaign itself;
// journal_replay runs a traced campaign as set-up and times reading its
// journal back.
type campaignWL struct {
	variant string
	cfg     des.CampaignConfig
	obsOn   bool // registry, journal and full trace sampling attached
	replay  bool // timed region is the journal read side

	p0    *cluster.Placement // what RunCampaign would hand to des.New
	tr    *workload.Trace
	layer values // per-layer times of the last setup

	// The journal lives in the run's scratch directory under one name for
	// every input, so each campaign rewrites the blocks of the one before.
	journalPath string
	// journal_replay: how much of it set-up kept.
	journalLen  int
	journalSize int64
}

func newCampaignWL(o runOpts) *campaignWL {
	cfg := des.DefaultCampaignConfig()
	cfg.Seed = o.seed
	cfg.Sim.Seed = o.seed
	w := &campaignWL{journalPath: filepath.Join(o.tmpDir, "events.jsonl")}
	switch o.workload {
	case "sim_steady":
		// Stable queues (TargetUtil 0.15, no drift) and a parked trigger:
		// the event loop and arrival generation do all the work.
		w.variant = "baseline"
		cfg.Machines, cfg.Shards, cfg.Rounds = 1000, 8000, 100
		cfg.Rate, cfg.Diurnal = 500, 0.2
		cfg.Sim.Fanout, cfg.Sim.TargetUtil, cfg.Sim.DriftSigma = 16, 0.15, 0
	case "campaign_closed_loop":
		// Not kexchange: a plan superseded mid-flight leaves fewer than
		// K machines vacant and every later solve of the campaign is
		// refused, on most seeds (README, known limits).
		w.variant = "solve"
		cfg.Machines, cfg.Shards, cfg.Rounds = 1000, 8000, 8
		cfg.Rate, cfg.Diurnal = 500, 0.2
		cfg.Sim.Fanout, cfg.Sim.DriftSigma = 8, 0.3
		cfg.Iterations, cfg.Restarts = 400, 2
		cfg.Bandwidth, cfg.InFlight = 400, 4
	case "campaign_traced", "journal_replay":
		w.variant = "solve"
		w.obsOn = true
		w.replay = o.workload == "journal_replay"
		cfg.Machines, cfg.Shards, cfg.Rounds = 200, 2400, 8
		if w.replay {
			cfg.Rounds = 3
		}
		cfg.Rate, cfg.Diurnal = 500, 0.2
		cfg.Sim.DriftSigma = 0.3
		cfg.Sim.TraceSample = 1
	}
	if o.quick {
		cfg.Machines, cfg.Shards = 30, 240
		cfg.Rate = 40
		if cfg.Rounds > 3 {
			cfg.Rounds = 3
		}
		cfg.Iterations = 60
	}
	w.cfg = cfg
	return w
}

func (w *campaignWL) setupLayer() values { return w.layer }

// setup mirrors the first half of des.RunCampaign for the baseline and
// solve variants: the instance and the arrival trace.
func (w *campaignWL) setup() error {
	cfg := w.cfg
	w.layer = values{}
	wcfg := workload.DefaultConfig()
	wcfg.Machines, wcfg.Shards = cfg.Machines, cfg.Shards
	wcfg.TargetFill, wcfg.Seed = cfg.Fill, cfg.Seed
	start := time.Now()
	inst, err := workload.Generate(wcfg)
	if err != nil {
		return err
	}
	w.layer["workload.generate_s"] = time.Since(start).Seconds()
	w.p0 = inst.Placement

	dur := float64(cfg.Rounds) * cfg.Sim.Window
	start = time.Now()
	w.tr, err = workload.GenerateTrace(workload.TraceConfig{
		Duration: dur, BaseRate: cfg.Rate, DiurnalAmp: cfg.Diurnal, Period: dur,
		CostMu: 0, CostSigma: 0.5, Seed: cfg.Seed + 7,
	})
	if err != nil {
		return err
	}
	w.layer["workload.trace_gen_s"] = time.Since(start).Seconds()

	if w.replay {
		run, err := w.runCampaign(nil, true, nil)
		if err != nil {
			return err
		}
		w.journalLen, w.journalSize = run.journalEvents, run.journalBytes
		if w.journalLen > replayEvents {
			w.journalLen = replayEvents
		}
	}
	return nil
}

// replayEvents is the journal prefix journal_replay keeps and reads back.
// How much a campaign journals depends on how many moves its solves
// happened to plan; a fixed-length prefix, itself a valid journal, keeps
// the read side's work the same on every seed.
const replayEvents = 300000

// firstLines passes the first n lines through to w and drops the rest.
type firstLines struct {
	w io.Writer
	n int
}

func (l *firstLines) Write(p []byte) (int, error) {
	keep := 0
	for l.n > 0 && keep < len(p) {
		i := bytes.IndexByte(p[keep:], '\n')
		if i < 0 {
			keep = len(p)
			break
		}
		keep += i + 1
		l.n--
	}
	if _, err := l.w.Write(p[:keep]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// campaignRun is one campaign's artifacts.
type campaignRun struct {
	report        des.Report
	rendered      string
	final         *cluster.Placement
	finalImb      float64
	counters      ctl.ExecCounters
	rounds        int
	solves        int
	roundErrors   int
	inFlight      int
	simSeconds    float64
	journalEvents int
	journalBytes  int64
	expoBytes     int
}

// seams decorates the three interfaces *des.Sim implements for the
// controller. Spans go to t; the controller's last Now() before a Sleep
// brackets the host time it spent between the two, which for the Sleep
// that charges SolveSeconds is the solve.
type seams struct {
	sim     *des.Sim
	t       *tracer
	lastNow int64
	gap     [2]int64
}

func (d *seams) Now() float64 {
	d.lastNow = d.t.now()
	return d.sim.Now()
}

func (d *seams) Sleep(x float64) {
	d.gap = [2]int64{d.lastNow, d.t.now()}
	id := d.t.begin("des.sleep")
	d.sim.Sleep(x)
	d.t.end(id)
}

func (d *seams) Next(t0, t1 float64) ([]float64, error) {
	id := d.t.begin("des.next")
	loads, err := d.sim.Next(t0, t1)
	d.t.end(id)
	return loads, err
}

func (d *seams) MoveStarted(mv plan.Move, ref ctl.MoveRef, at, eta float64) {
	id := d.t.begin("des.move_cb")
	d.sim.MoveStarted(mv, ref, at, eta)
	d.t.end(id)
}

func (d *seams) MoveFinished(mv plan.Move, ref ctl.MoveRef, at float64, committed bool) {
	id := d.t.begin("des.move_cb")
	d.sim.MoveFinished(mv, ref, at, committed)
	d.t.end(id)
}

// onRound sees each round after it ended; a solved round's solve is the
// gap before the round's only Sleep inside snapshotAndDecide.
func (d *seams) onRound(st ctl.RoundStat) {
	if st.Solved {
		d.t.add("core.solve", d.gap[0], d.gap[1])
	}
}

// runCampaign is the second half of des.RunCampaign in the harness's own
// wiring, so the seams can be decorated: des.New, ctl.New, Run, Report,
// Render, and with obs on the journal flush and the exposition. The
// warm-up runs des.RunCampaign itself and the digests of the two must
// agree.
func (w *campaignWL) runCampaign(t *tracer, obsOn bool, rec core.Recorder) (*campaignRun, error) {
	cfg := w.cfg
	id := t.begin("cluster.clone")
	p := w.p0.Clone()
	t.end(id)

	var reg *obs.Registry
	var journal *obs.Journal
	var closeJournal func() error
	scfg := cfg.Sim
	if obsOn {
		id = t.begin("obs.open")
		reg = obs.NewRegistry()
		var err error
		maxLines := 0
		if w.replay {
			maxLines = replayEvents
		}
		if journal, closeJournal, err = createJournal(w.journalPath, maxLines); err != nil {
			return nil, err
		}
		defer closeJournal() // error paths; the success path checks it below
		t.end(id)
	} else {
		scfg.TraceSample = 0
	}

	id = t.begin("des.new")
	sim, err := des.New(scfg, p, w.tr)
	t.end(id)
	if err != nil {
		return nil, err
	}
	sim.AttachObs(reg, journal)

	high, low := cfg.HighWater, cfg.LowWater
	if w.variant == "baseline" {
		high, low = 1e18, 1
	}
	ccfg := ctl.DefaultConfig()
	ccfg.Window = scfg.Window
	ccfg.Policy = ctl.Policy{HighWater: high, LowWater: low}
	ccfg.Budget = ctl.Budget{Iterations: cfg.Iterations, Restarts: cfg.Restarts, SolveSeconds: cfg.SolveSeconds}
	ccfg.Exec.Migration.Bandwidth = cfg.Bandwidth
	ccfg.Exec.Migration.Concurrency = cfg.InFlight
	ccfg.Seed = cfg.Seed
	ccfg.Registry, ccfg.Journal, ccfg.Tracer = reg, journal, sim.Tracer()
	ccfg.Solver.Recorder = rec

	var clock ctl.Clock = sim
	var src ctl.LoadSource = sim
	ccfg.Exec.Observer = sim
	if t != nil {
		d := &seams{sim: sim, t: t}
		clock, src, ccfg.Exec.Observer, ccfg.OnRound = d, d, d, d.onRound
	}
	c, err := ctl.New(ccfg, clock, p, src)
	if err != nil {
		return nil, err
	}
	id = t.begin("ctl.run")
	err = c.Run(cfg.Rounds)
	t.end(id)
	if err != nil {
		return nil, err
	}

	run := &campaignRun{}
	id = t.begin("des.report")
	run.report = sim.Report()
	t.end(id)
	id = t.begin("des.render")
	run.rendered = run.report.Render()
	t.end(id)
	if obsOn {
		id = t.begin("obs.journal_close")
		if err := closeJournal(); err != nil {
			return nil, err
		}
		t.end(id)
		id = t.begin("obs.exposition")
		var expo bytes.Buffer
		if err := reg.WritePrometheus(&expo); err != nil {
			return nil, err
		}
		t.end(id)
		run.expoBytes = expo.Len()
		run.journalEvents = journal.Len()
		fi, err := os.Stat(w.journalPath)
		if err != nil {
			return nil, err
		}
		run.journalBytes = fi.Size()
	}

	run.final = c.SnapshotPlacement()
	run.finalImb = c.Report().Imbalance
	run.counters = c.ExecCounters()
	st := c.Status()
	run.rounds, run.solves = st.Round, st.Solves
	for _, h := range c.History() {
		if h.Err != "" {
			run.roundErrors++
		}
	}
	run.inFlight = sim.InFlight()
	run.simSeconds = sim.Now()
	return run, nil
}

// viaRunCampaign runs the same campaign through the product's own entry
// point and returns the artifacts that can be compared.
func (w *campaignWL) viaRunCampaign() (*campaignRun, error) {
	cfg := w.cfg
	closeJournal := func() error { return nil }
	if w.obsOn {
		var err error
		if cfg.Journal, closeJournal, err = createJournal(w.journalPath, 0); err != nil {
			return nil, err
		}
		cfg.Registry = obs.NewRegistry()
	} else {
		cfg.Sim.TraceSample = 0
	}
	res, err := des.RunCampaign(cfg, w.variant)
	if cerr := closeJournal(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	run := &campaignRun{report: res.Report, rendered: res.Report.Render(), finalImb: res.Final,
		rounds: res.Rounds, solves: res.Solves}
	run.counters.Completed, run.counters.Aborted = res.Moves, res.Aborted
	if w.obsOn {
		run.journalEvents = cfg.Journal.Len()
	}
	return run, nil
}

// createJournal opens a buffered JSONL journal on path, as rexsim does,
// keeping at most maxLines lines when that is positive. An existing file
// is rewritten in place and cut to the new length at the end: a
// repetition then reuses the blocks of the one before it, where creating
// the file anew would free and reallocate a quarter of a gigabyte on disk
// around every timed region. The returned function surfaces the journal's
// sticky error, flushes and closes.
func createJournal(path string, maxLines int) (*obs.Journal, func() error, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	var w io.Writer = bw
	if maxLines > 0 {
		w = &firstLines{w: bw, n: maxLines}
	}
	j := obs.NewJournal(w)
	return j, func() error {
		err := j.Close()
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
		if size, serr := f.Seek(0, io.SeekCurrent); err == nil {
			if err = serr; err == nil {
				err = f.Truncate(size)
			}
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// campaignArtifacts rides along in outcome for check and probes.
type campaignArtifacts struct {
	run    *campaignRun
	events []obs.Event // journal_replay: what the timed region read
	traces []*obs.Trace
}

// warmup runs the campaign through des.RunCampaign, which generates the
// instance and the trace itself: every timed repetition, on the harness's
// own wiring of what setup generated, must render the same report.
func (w *campaignWL) warmup() (*outcome, error) {
	if w.replay {
		return w.repReplay(nil)
	}
	run, err := w.viaRunCampaign()
	if err != nil {
		return nil, err
	}
	return w.campaignOutcome(run), nil
}

func (w *campaignWL) rep(t *tracer) (*outcome, error) {
	if w.replay {
		return w.repReplay(t)
	}
	// With obs on the controller installs obs.SolverRecorder itself; the
	// harness leaves it in place so the exposition is the product's, and
	// counts solver work in the obs-off probe.
	var counts *solveCounts
	var rec core.Recorder // stays a nil interface unless the harness counts
	if t != nil && !w.obsOn {
		counts = newSolveCounts()
		rec = counts
	}
	run, err := w.runCampaign(t, w.obsOn, rec)
	if err != nil {
		return nil, err
	}
	o := w.campaignOutcome(run)
	if t != nil {
		w.campaignLayer(o, run)
		counts.into(o.layer)
	}
	return o, nil
}

// campaignOutcome fills what every repetition reports.
func (w *campaignWL) campaignOutcome(run *campaignRun) *outcome {
	rep := run.report
	o := &outcome{
		work:      float64(rep.Events),
		attempted: rep.Arrivals + run.rounds + run.counters.Dispatched,
		failed:    rep.All.Dropped + run.roundErrors + run.counters.Failures,
		digests:   map[string]string{"report": sha(run.rendered)},
		layer: values{
			"final_imbalance": run.finalImb,
			"plan_moves":      float64(run.counters.Completed),
			"query_p99_s":     rep.All.P99,
		},
		art: &campaignArtifacts{run: run},
	}
	if run.final != nil {
		o.digests["assignment"] = shaAssignment(run.final.Assignment())
	}
	o.notes = append(o.notes, fmt.Sprintf("query latency (sim s): p50 %.6f p99 %.6f over %d queries; highest percentile with >=10 samples beyond it: p%g",
		rep.All.P50, rep.All.P99, rep.All.Queries, highestPercentile(rep.All.Queries)))
	if w.variant != "baseline" {
		if rep.During.Queries > 0 {
			o.layer["during_p99_s"] = rep.During.P99
			o.notes = append(o.notes, fmt.Sprintf("during-migration p99 %.6f sim s over %d queries", rep.During.P99, rep.During.Queries))
		} else {
			o.notes = append(o.notes, "during_p99_s absent: no query overlapped a migration copy")
		}
	}
	return o
}

// campaignLayer adds the counts only the harness's own wiring exposes.
func (w *campaignWL) campaignLayer(o *outcome, run *campaignRun) {
	rep, ctr := run.report, run.counters
	windows := math.Ceil(run.simSeconds / w.cfg.Sim.Window)
	for k, v := range map[string]float64{
		"ctl.rounds":            float64(run.rounds),
		"ctl.solves":            float64(run.solves),
		"ctl.round_errors":      float64(run.roundErrors),
		"ctl.moves_dispatched":  float64(ctr.Dispatched),
		"ctl.moves_completed":   float64(ctr.Completed),
		"ctl.moves_aborted":     float64(ctr.Aborted),
		"ctl.move_failures":     float64(ctr.Failures),
		"ctl.peak_parallel":     float64(ctr.PeakParallel),
		"des.events":            float64(rep.Events),
		"des.events_arrival":    float64(rep.Arrivals),
		"des.events_window":     windows,
		"des.events_legdone":    float64(rep.Events) - float64(rep.Arrivals) - windows,
		"des.queries_completed": float64(rep.All.Queries),
		"des.queries_dropped":   float64(rep.All.Dropped),
		"des.in_flight_end":     float64(run.inFlight),
		"des.sim_seconds":       run.simSeconds,
	} {
		o.layer[k] = v
	}
	if w.obsOn {
		o.layer["obs.journal_bytes"] = float64(run.journalBytes)
		o.layer["obs.journal_events"] = float64(run.journalEvents)
		o.layer["obs.exposition_bytes"] = float64(run.expoBytes)
	}
}

// repReplay is journal_replay's timed region: what rextrace does.
func (w *campaignWL) repReplay(t *tracer) (*outcome, error) {
	f, err := os.Open(w.journalPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	id := t.begin("obs.read")
	events, err := obs.ReadJournal(f)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("obs.build_traces")
	traces := obs.BuildTraces(events)
	t.end(id)
	id = t.begin("obs.analyse")
	analysis := obs.CriticalPath(traces) + obs.Blame(traces) + obs.Top(traces, 10)
	t.end(id)

	spans := 0
	for _, tr := range traces {
		spans += len(tr.Spans)
	}
	return &outcome{
		work:      float64(w.journalSize) / mb,
		attempted: w.journalLen,
		failed:    w.journalLen - len(events),
		digests:   map[string]string{"analysis": sha(analysis)},
		layer: values{
			"obs.journal_bytes":  float64(w.journalSize),
			"obs.journal_events": float64(len(events)),
			"obs.traces":         float64(len(traces)),
			"obs.spans":          float64(spans),
		},
		art: &campaignArtifacts{events: events, traces: traces},
	}, nil
}

func (w *campaignWL) check(g *gate, o *outcome) {
	art := o.art.(*campaignArtifacts)
	if w.replay {
		g.check(len(art.events) == w.journalLen, "journal_len", "re-read %d events, the writer counted %d", len(art.events), w.journalLen)
		g.check(len(art.traces) > 0, "obs.traces", "no trace reconstructed from %d events", len(art.events))
		return
	}
	run, rep, cfg := art.run, art.run.report, w.cfg
	g.check(cfg.Rate*(1+cfg.Diurnal) <= 600*(1+1e-9), "arrival_peak", "configured peak %.0f qps is above 600", cfg.Rate*(1+cfg.Diurnal))
	if w.obsOn {
		lines, err := countLines(w.journalPath)
		g.check(err == nil && lines == run.journalEvents, "journal_len", "journal holds %d lines, the writer counted %d (%v)", lines, run.journalEvents, err)
	}
	if run.final == nil {
		// des.RunCampaign exposes neither the simulator nor the live
		// placement; the rest is checked on the harness-wired
		// repetitions, whose report digest must equal this one's.
		return
	}
	g.check(rep.Arrivals == rep.All.Queries+rep.All.Dropped+run.inFlight, "conservation",
		"arrivals %d != completed %d + dropped %d + in flight %d", rep.Arrivals, rep.All.Queries, rep.All.Dropped, run.inFlight)
	checkArrivalRate(g, rep.Arrivals, run.simSeconds, cfg.Rate)
	err := run.final.CheckInvariants()
	g.check(err == nil, "invariants", "final placement: %v", err)
}

// checkArrivalRate is the arrival-saturation check: Trace.Arrivals draws
// Poisson counts by Knuth's product method, which silently saturates near
// 745 arrivals per one-second bucket, so a workload whose offered rate
// falls short of the configured one is measuring the ceiling. The count
// may miss the configured mean by 5%, or at smoke-test scale by the four
// standard deviations of a Poisson count when that is more.
func checkArrivalRate(g *gate, arrivals int, simSeconds, rate float64) {
	want := rate * simSeconds
	tol := math.Max(0.05*want, 4*math.Sqrt(want))
	g.check(math.Abs(float64(arrivals)-want) <= tol, "arrival_rate", "offered %.1f qps over %.0f sim s, configured %.1f", float64(arrivals)/simSeconds, simSeconds, rate)
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	n := 0
	for {
		k, err := f.Read(buf)
		n += bytes.Count(buf[:k], []byte{'\n'})
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

func (w *campaignWL) probes(o *outcome, wallS float64, m values) error {
	art := o.art.(*campaignArtifacts)
	if !w.replay {
		m["des.ns_per_event"] = m["des.sleep_s"] * 1e9 / float64(art.run.report.Events)
		w.probeArrivals(m)
		probeRebuild(w.p0, m)
	}
	if !w.obsOn {
		return nil
	}
	events := art.events
	if w.replay {
		m["obs.read_mb_per_s"] = float64(w.journalSize) / mb / m["obs.read_s"]
	} else {
		m["obs.journal_write_mb_per_s"] = float64(art.run.journalBytes) / mb / m["ctl.run_s"]
		// The same campaign with registry, journal and sampling off,
		// under the harness's recorder: the base of the overhead ratio
		// and the source of the solver counts.
		rec := newSolveCounts()
		start := time.Now()
		off, err := w.runCampaign(nil, false, rec)
		if err != nil {
			return err
		}
		offWall := time.Since(start).Seconds()
		if sha(off.rendered) != o.digests["report"] {
			return fmt.Errorf("obs changed the simulation: report digest differs with obs off")
		}
		m["obs.overhead_ratio"] = wallS / offWall
		rec.into(m)

		f, err := os.Open(w.journalPath)
		if err != nil {
			return err
		}
		events, err = obs.ReadJournal(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(events) != art.run.journalEvents {
			return fmt.Errorf("journal re-read %d events, the writer counted %d", len(events), art.run.journalEvents)
		}
	}
	// Emit cost alone: the run's own events through a fresh journal that
	// discards its output.
	if n := len(events); n > 0 {
		if n > replayEvents {
			events = events[:replayEvents]
		}
		j := obs.NewJournal(io.Discard)
		start := time.Now()
		for i := range events {
			j.Emit(events[i])
		}
		m["obs.emit_ns_per_event"] = float64(time.Since(start).Nanoseconds()) / float64(len(events))
	}
	return nil
}

// probeArrivals times Trace.Arrivals over the run's windows on a fresh
// stream, and reports the rate it actually offers.
func (w *campaignWL) probeArrivals(m values) {
	r := rand.New(rand.NewSource(w.cfg.Seed))
	win := w.cfg.Sim.Window
	n := 0
	start := time.Now()
	for i := 0; i < w.cfg.Rounds; i++ {
		n += len(w.tr.Arrivals(float64(i)*win, float64(i+1)*win, r))
	}
	el := time.Since(start)
	if n > 0 {
		m["workload.arrivals_ns_per_arrival"] = float64(el.Nanoseconds()) / float64(n)
		m["workload.arrivals_per_s_offered"] = float64(n) / (float64(w.cfg.Rounds) * win)
	}
}

// probeRebuild times the per-round placement rebuild ctl.applyLoads
// performs (FromAssignment on the unchanged assignment) and the Clone the
// controller hands the solver.
func probeRebuild(p *cluster.Placement, m values) {
	const n = 20
	assign := p.Assignment()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := cluster.FromAssignment(p.Cluster(), assign); err != nil {
			return
		}
	}
	m["cluster.from_assignment_s"] = time.Since(start).Seconds() / n
	start = time.Now()
	for i := 0; i < n; i++ {
		p.Clone()
	}
	m["cluster.clone_s"] = time.Since(start).Seconds() / n
}

// solveCounts is the harness's core.Recorder: iteration counts by
// operator pair and run totals. Restarts flush concurrently.
type solveCounts struct {
	mu             sync.Mutex
	pairs          map[[2]string]int
	iterations     int
	accepted       int
	repairFailures int
	partRounds     int
	partResolves   int
	exchShards     int
	exchVacant     int
}

func newSolveCounts() *solveCounts { return &solveCounts{pairs: make(map[[2]string]int)} }

func (s *solveCounts) RecordIterations(destroyOp, repairOp, outcome string, n int) {
	s.mu.Lock()
	s.pairs[[2]string{destroyOp, repairOp}] += n
	s.mu.Unlock()
}

func (s *solveCounts) RecordRun(iterations, accepted, repairFailures int, seconds float64) {
	s.mu.Lock()
	s.iterations += iterations
	s.accepted += accepted
	s.repairFailures += repairFailures
	s.mu.Unlock()
}

func (s *solveCounts) RecordPartitionRound(partitions, solved int, objective float64) {
	s.mu.Lock()
	s.partRounds++
	s.partResolves += solved
	s.mu.Unlock()
}

func (s *solveCounts) RecordExchange(shardMoves, vacantTrades int) {
	s.mu.Lock()
	s.exchShards += shardMoves
	s.exchVacant += vacantTrades
	s.mu.Unlock()
}

// into writes the counts as core.* metrics; a nil receiver writes none.
func (s *solveCounts) into(m values) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m["core.iterations"] = float64(s.iterations)
	if s.iterations > 0 {
		m["core.accept_ratio"] = float64(s.accepted) / float64(s.iterations)
		m["core.repair_fail_ratio"] = float64(s.repairFailures) / float64(s.iterations)
	}
	for pair, n := range s.pairs {
		m["core.op."+pair[0]+"."+pair[1]+".iters"] = float64(n)
	}
	m["core.partition_rounds"] = float64(s.partRounds)
	m["core.partition_resolves"] = float64(s.partResolves)
	m["core.exchange_shard_moves"] = float64(s.exchShards)
	m["core.exchange_vacant_trades"] = float64(s.exchVacant)
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func shaAssignment(assign []cluster.MachineID) string {
	h := sha256.New()
	var b [8]byte
	for _, m := range assign {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(m)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
