package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Span kinds recorded in the event journal.
const (
	SpanRound = "round" // one control round (snapshot → decision)
	SpanSolve = "solve" // one budgeted SRA solve
	SpanMove  = "move"  // one shard copy, dispatch → land
	SpanSim   = "sim"   // one discrete-event simulator measurement window
	SpanTrace = "trace" // one completed trace span (see TraceEvent)
)

// Span phases.
const (
	PhaseBegin = "begin"
	PhaseEnd   = "end"
)

// Move span outcomes (round and solve spans use "ok"/"err"-style outcomes
// set by the controller).
const (
	OutcomeOK      = "ok"
	OutcomeErr     = "err"
	OutcomeFailed  = "failed"  // copy failed; the move will retry
	OutcomeAborted = "aborted" // in-flight copy abandoned by supersession
)

// MoveEvent identifies one scheduled move inside a move span. Machine and
// shard IDs are plain ints so a journal is self-contained JSON.
type MoveEvent struct {
	Seq     int `json:"seq"`
	Shard   int `json:"shard"`
	From    int `json:"from"`
	To      int `json:"to"`
	Attempt int `json:"attempt,omitempty"`
}

// SimEvent is the payload of a SpanSim record: one discrete-event
// simulator measurement window's query-latency summary, emitted at the
// window's closing timestamp. Percentiles are exact (computed from the
// window's completed-query latencies, not from histogram buckets) and in
// simulated seconds; Copies is the number of migration copies in flight
// when the window closed.
type SimEvent struct {
	Window    int     `json:"window"`
	Arrivals  int     `json:"arrivals"`
	Completed int     `json:"completed"`
	Dropped   int     `json:"dropped,omitempty"`
	P50       float64 `json:"p50"`
	P99       float64 `json:"p99"`
	P999      float64 `json:"p999"`
	Copies    int     `json:"copies,omitempty"`
}

// Event is one JSONL journal record. Timestamps come from the control
// plane's Clock, so a virtual-clock run journals in simulated seconds and
// is bit-reproducible: for a fixed configuration the byte stream is
// identical across runs and GOMAXPROCS values.
type Event struct {
	T     float64 `json:"t"`
	Span  string  `json:"span"`
	Phase string  `json:"phase"`
	Round int     `json:"round"`

	Outcome string `json:"outcome,omitempty"`
	Err     string `json:"err,omitempty"`

	// Round/solve payloads.
	Imbalance float64 `json:"imbalance,omitempty"`
	Objective float64 `json:"objective,omitempty"`
	Moves     int     `json:"moves,omitempty"`
	Seconds   float64 `json:"seconds,omitempty"`

	// Move payload.
	Move *MoveEvent `json:"move,omitempty"`

	// Sim payload (SpanSim records).
	Sim *SimEvent `json:"sim,omitempty"`

	// Trace payload (SpanTrace records).
	Trace *TraceEvent `json:"trace,omitempty"`
}

// Journal writes events as JSON Lines. Emit is safe for concurrent use;
// write errors are sticky and surfaced by Err/Close rather than per
// event, so instrumented code paths never branch on telemetry failures.
type Journal struct {
	mu   sync.Mutex
	w    io.Writer // guarded by: mu
	n    int       // guarded by: mu
	err  error     // guarded by: mu
	buf  []byte    // guarded by: mu; the line being encoded, reused across emits
	memo floatMemo // guarded by: mu; the last floats encoded, by bits
}

// NewJournal wraps w. The caller owns closing any underlying file; Close
// on the journal only flushes the sticky error state.
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// Emit appends one event. The first failure — an event JSON cannot carry
// (a NaN or ±Inf field) or a write error — is retained and all subsequent
// emits become no-ops; an event that fails to encode never reaches the
// writer, not even in part. A nil journal drops the event.
//
//rexlint:detsink journal write
func (j *Journal) Emit(ev Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	line, err := appendEvent(j.buf[:0], &ev, &j.memo)
	if err != nil {
		// The span kind is cloned: handing fmt a string of ev's would
		// make every caller's event escape (see encode.go).
		j.err = fmt.Errorf("obs: event %d (span %s): %w", j.n, strings.Clone(ev.Span), err)
		return
	}
	line = append(line, '\n')
	j.buf = line
	if _, err := j.w.Write(line); err != nil {
		j.err = fmt.Errorf("obs: write event: %w", err)
		return
	}
	j.n++
}

// Len returns the number of events successfully written.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close surfaces the sticky error state. It does not close the underlying
// writer — the caller of NewJournal owns that — but callers that tear a
// journal down should check this result: it is the only place the deferred
// write failures ever become visible. CreateJournal's close function calls
// it for its callers.
func (j *Journal) Close() error {
	return j.Err()
}

// CreateJournal opens a buffered JSONL journal on a new file at path. The
// returned close function is the whole teardown: it reports the journal's
// sticky emit error if there is one, else a flush failure, else the file's
// close error, and the file is closed in every case. Calling it again is a
// no-op. An empty path yields a nil journal and a no-op close.
func CreateJournal(path string) (*Journal, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	j, closeFn := bufferJournal(f)
	return j, closeFn, nil
}

// journalBufSize is CreateJournal's write buffer. A traced campaign
// writes hundreds of megabytes; at bufio's default 4 KiB that is one
// write call per 4 KiB.
const journalBufSize = 64 << 10

// bufferJournal is CreateJournal on an already opened destination.
func bufferJournal(wc io.WriteCloser) (*Journal, func() error) {
	bw := bufio.NewWriterSize(wc, journalBufSize)
	j := NewJournal(bw)
	closed := false
	return j, func() error {
		if closed {
			return nil
		}
		closed = true
		emitErr := j.Close()
		flushErr := bw.Flush()
		closeErr := wc.Close()
		switch {
		case emitErr != nil:
			return emitErr
		case flushErr != nil:
			return flushErr
		}
		return closeErr
	}
}

// ReadJournal parses a JSONL event stream. It fails on the first line it
// cannot read — malformed, or longer than the 1 MiB record cap — reporting
// its line number. A line in the form Emit writes is read by decode.go's
// decoder; any other line goes through json.Unmarshal, which words every
// parse error.
func ReadJournal(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var (
		out  eventChunks
		dec  decoder
		line int
	)
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		ev := out.next()
		if !dec.event(text, ev) {
			*ev = Event{}
			if err := json.Unmarshal(text, ev); err != nil {
				return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
			}
		}
		if ev.Span == "" || ev.Phase == "" {
			return nil, fmt.Errorf("obs: journal line %d: missing span/phase", line)
		}
		switch ev.Span {
		case SpanRound, SpanSolve, SpanMove, SpanSim, SpanTrace:
		default:
			return nil, fmt.Errorf("obs: journal line %d: unknown span kind %q", line, ev.Span)
		}
		if ev.Span == SpanTrace && ev.Trace == nil {
			return nil, fmt.Errorf("obs: journal line %d: trace span without trace payload", line)
		}
	}
	if err := sc.Err(); err != nil {
		// The scanner stopped before delivering the line after the last
		// good one (token too long, or the underlying reader failed there).
		return nil, fmt.Errorf("obs: journal line %d: %w", line+1, err)
	}
	return out.events(), nil
}
