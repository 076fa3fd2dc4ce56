package obs

import (
	"math/rand"

	"rexchange/internal/rng"
)

// This file is the tracing third of the telemetry layer: deterministic
// trace/span identity plus journal emission. A trace is a tree of spans
// identified by 64-bit IDs rendered as 16 hex digits. Two ID-minting
// disciplines coexist, both deterministic:
//
//   - Query traces draw their trace ID from the rng.Partitioned "trace"
//     sub-stream (rng.StreamTrace). Because that stream is isolated,
//     enabling or disabling sampling — or changing the rate — cannot
//     perturb workload generation, which draws from "workload".
//   - Control-plane traces (round → solve → move) use pure functions of
//     (round, seq): RoundTraceID, RoundSpanID, SolveSpanID, MoveSpanID.
//     The simulator and the executor compute identical IDs without
//     exchanging state, which is what lets a query leg's blocked_by link
//     and a move's own span join on (round, seq) at analysis time.
//
// Span IDs within a trace are derived from the trace ID by DeriveSpan
// (chained splitmix64 over an index tuple), never drawn from a stream:
// a span's identity is a function of its position in the tree, so the
// journal byte stream is identical across runs and GOMAXPROCS values.

// TraceID identifies one trace (one sampled query, or one control round).
type TraceID uint64

// String renders the ID as 16 lowercase hex digits.
func (id TraceID) String() string { return hex16(uint64(id)) }

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex16(uint64(id)) }

// DeriveSpan derives the span ID at an index tuple of the trace's span
// tree. The same (trace, tuple) always yields the same ID; distinct
// tuples yield structurally uncorrelated IDs (rng.CellSeed).
func DeriveSpan(trace TraceID, idx ...int) SpanID {
	return SpanID(rng.CellSeed(int64(trace), idx...))
}

// Tag bases decorrelating the control plane's pure-function trace IDs
// from each other and from query trace IDs. Arbitrary distinct constants;
// pinned by TestCtlTraceIDsPinned so a change is a deliberate schema
// break, not an accident.
const ctlTraceTag = 0x7265782D74726163 // "rex-trac"

// Span-tree indices of the control-plane spans under a round trace.
const (
	idxRoundSpan = 0
	idxSolveSpan = 1
	idxMoveSpan  = 2 // MoveSpanID appends the move seq
)

// RoundTraceID is the trace ID of control round r. Pure function: the
// controller, the executor, and offline analysis all compute it locally.
func RoundTraceID(round int) TraceID {
	return TraceID(rng.CellSeed(ctlTraceTag, round))
}

// RoundSpanID is the root span of round r's trace.
func RoundSpanID(round int) SpanID {
	return DeriveSpan(RoundTraceID(round), idxRoundSpan)
}

// SolveSpanID is the solve span of round r, child of RoundSpanID.
func SolveSpanID(round int) SpanID {
	return DeriveSpan(RoundTraceID(round), idxSolveSpan)
}

// MoveSpanID is the span of move seq in round r's plan, child of
// RoundSpanID.
func MoveSpanID(round, seq int) SpanID {
	return DeriveSpan(RoundTraceID(round), idxMoveSpan, seq)
}

// Span operation names, recorded in TraceEvent.Op.
const (
	OpQuery   = "query"   // query root: arrival → merge done
	OpLeg     = "leg"     // one fan-out leg: enqueue → service done
	OpQueue   = "queue"   // queue wait inside a leg
	OpService = "service" // service time inside a leg
	OpMerge   = "merge"   // merge barrier: slowest leg → completion
	OpRound   = "round"   // one control round
	OpSolve   = "solve"   // the round's budgeted solve
	OpMove    = "move"    // one shard copy, dispatch → land
)

// BlameRef attributes a span's delay to one migration move: the copy of
// plan move (Round, Seq) running on Machine either slowed the leg's
// service directly (Kind "drag") or slowed the queue the leg waited in
// (Kind "queue"), costing Delay simulated seconds versus an unimpaired
// machine.
type BlameRef struct {
	Round   int     `json:"round"`
	Seq     int     `json:"seq"`
	Machine int     `json:"machine"`
	Kind    string  `json:"kind"`
	Delay   float64 `json:"delay"`
}

// Blame kinds.
const (
	BlameDrag  = "drag"  // copy streaming off the machine slowed service
	BlameQueue = "queue" // queue drained slower because of an active copy
)

// TraceEvent is the payload of a SpanTrace journal record: one completed
// span. Spans are emitted once, at their end time (the record's T field);
// Start carries the opening timestamp, so duration = T − Start. Machine,
// Shard, and Seq are −1 when not applicable to the op.
type TraceEvent struct {
	ID     string `json:"id"`            // trace ID, 16 hex digits
	Span   string `json:"sid"`           // this span's ID
	Parent string `json:"pid,omitempty"` // parent span ID; empty on roots
	Op     string `json:"op"`

	Start   float64 `json:"start"`
	Machine int     `json:"machine"`
	Shard   int     `json:"shard"`
	Seq     int     `json:"seq"`

	// Mig is the migration phase ("before"/"during"/"after") at query
	// arrival; set on query roots only.
	Mig string `json:"mig,omitempty"`

	// Blocked names the migration move whose copy delayed this span.
	Blocked *BlameRef `json:"blocked_by,omitempty"`
}

// traceMetrics is the rex_trace_* family set, attached lazily so a
// metrics-less tracer still journals.
type traceMetrics struct {
	sampled *Counter
	spans   map[string]*Counter
	blame   *Counter
}

// traceOps enumerates every op for eager series resolution: an op that
// never fires still renders as a zero sample, so LintExposition never
// sees a declared-but-empty family and dashboards see a stable series
// set.
var traceOps = []string{OpQuery, OpLeg, OpQueue, OpService, OpMerge, OpRound, OpSolve, OpMove}

// newTraceMetrics registers the rex_trace_* families on reg.
func newTraceMetrics(reg *Registry) *traceMetrics {
	m := &traceMetrics{
		sampled: reg.Counter("rex_trace_sampled_total",
			"Queries selected by the trace sampler."),
		blame: reg.Counter("rex_trace_blame_seconds_total",
			"Simulated seconds of query delay attributed to migration moves."),
		spans: make(map[string]*Counter, len(traceOps)),
	}
	vec := reg.CounterVec("rex_trace_spans_total",
		"Trace spans emitted to the journal.", "op")
	for _, op := range traceOps {
		m.spans[op] = vec.With(op)
	}
	return m
}

// Tracer mints sampling decisions from the rng "trace" sub-stream and
// writes completed spans into the journal as SpanTrace records. All
// methods are nil-receiver safe, so instrumented code paths read as
// straight-line calls with tracing compiled in permanently and enabled
// by configuration.
//
// Sample draws from a *rand.Rand and must only be called from the
// goroutine that owns the stream (in practice the simulator's event
// loop); Emit is safe for concurrent use (the journal serializes).
type Tracer struct {
	r    *rand.Rand
	rate float64
	j    *Journal
	m    *traceMetrics
}

// NewTracer builds a tracer sampling at the given rate (0 disables, 1
// samples everything) whose IDs come from r — by contract the
// rng.StreamTrace sub-stream — and whose spans go to j.
//
//rexlint:stream trace
func NewTracer(r *rand.Rand, rate float64, j *Journal) *Tracer {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &Tracer{r: r, rate: rate, j: j}
}

// AttachMetrics registers the rex_trace_* families on reg and counts
// subsequent Sample/Emit calls against them.
func (t *Tracer) AttachMetrics(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	t.m = newTraceMetrics(reg)
}

// Sample decides whether to trace the next unit of work and, if so,
// mints its trace ID. Both draws come from the isolated trace stream, so
// the decision sequence for a fixed seed is identical regardless of what
// any other subsystem does — and no other stream advances here.
func (t *Tracer) Sample() (TraceID, bool) {
	if t == nil || t.rate <= 0 {
		return 0, false
	}
	if t.r.Float64() >= t.rate {
		return 0, false
	}
	id := TraceID(t.r.Uint64())
	if t.m != nil {
		t.m.sampled.Inc()
	}
	return id, true
}

// Emit journals one completed span at time at (its end timestamp) under
// the given control round.
func (t *Tracer) Emit(at float64, round int, ev TraceEvent) {
	if t == nil {
		return
	}
	if t.m != nil {
		if c, ok := t.m.spans[ev.Op]; ok {
			c.Inc()
		}
		if ev.Blocked != nil {
			t.m.blame.Add(ev.Blocked.Delay)
		}
	}
	if t.j == nil {
		return
	}
	t.j.Emit(Event{
		T:     at,
		Span:  SpanTrace,
		Phase: PhaseEnd,
		Round: round,
		Trace: &ev,
	})
}

// Enabled reports whether the tracer can ever sample. Callers use it to
// skip building per-query trace state entirely when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil && t.rate > 0 }
