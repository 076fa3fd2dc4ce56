package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"rexchange/internal/obs"
)

// countingRecorder is a test Recorder accumulating everything it is told.
type countingRecorder struct {
	mu       sync.Mutex
	byTriple map[[3]string]int
	runs     int
	iters    int
	accepted int
	failures int
	seconds  float64
}

func newCountingRecorder() *countingRecorder {
	return &countingRecorder{byTriple: make(map[[3]string]int)}
}

func (r *countingRecorder) RecordIterations(d, rp, outcome string, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byTriple[[3]string{d, rp, outcome}] += n
}

func (r *countingRecorder) RecordRun(iterations, accepted, repairFailures int, seconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	r.iters += iterations
	r.accepted += accepted
	r.failures += repairFailures
	r.seconds += seconds
}

// TestRecorderCountsMatchResult cross-checks the telemetry against the
// Result: every iteration lands in exactly one outcome bucket, and the
// accepted/new-best/improved buckets reconcile with Result.Accepted.
func TestRecorderCountsMatchResult(t *testing.T) {
	p := smallInstance(t, 2, 2)
	cfg := quickConfig()
	cfg.Iterations = 600
	rec := newCountingRecorder()
	cfg.Recorder = rec
	res, err := New(cfg).Solve(p)
	if err != nil {
		t.Fatal(err)
	}

	total, acceptedish, failed := 0, 0, 0
	for k, n := range rec.byTriple {
		total += n
		switch k[2] {
		case IterAccepted, IterImproved, IterNewBest:
			acceptedish += n
		case IterRepairFailed:
			failed += n
		case IterRejected:
		default:
			t.Errorf("unknown outcome label %q", k[2])
		}
	}
	if total != cfg.Iterations {
		t.Errorf("outcome counts sum to %d, want %d", total, cfg.Iterations)
	}
	if acceptedish != res.Accepted {
		t.Errorf("accepted-ish outcomes %d, want Result.Accepted %d", acceptedish, res.Accepted)
	}
	if failed != res.RepairFailures {
		t.Errorf("repair_failed outcomes %d, want Result.RepairFailures %d", failed, res.RepairFailures)
	}
	if rec.runs != 1 || rec.iters != cfg.Iterations {
		t.Errorf("run totals = %d runs / %d iters, want 1 / %d", rec.runs, rec.iters, cfg.Iterations)
	}
	if rec.seconds <= 0 {
		t.Errorf("run seconds = %g, want > 0", rec.seconds)
	}
}

// TestRecorderDoesNotPerturbSearch proves telemetry is an observer: for a
// fixed seed the Result is bit-identical with and without a Recorder.
func TestRecorderDoesNotPerturbSearch(t *testing.T) {
	p := smallInstance(t, 5, 2)
	cfg := quickConfig()
	cfg.Iterations = 400
	plain, err := New(cfg).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = newCountingRecorder()
	instrumented, err := New(cfg).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(plain.Objective) != math.Float64bits(instrumented.Objective) {
		t.Fatalf("objective diverged: %v vs %v", plain.Objective, instrumented.Objective)
	}
	if plain.Accepted != instrumented.Accepted || plain.MovedShards != instrumented.MovedShards {
		t.Fatalf("trajectory diverged: %+v vs %+v",
			[2]int{plain.Accepted, plain.MovedShards}, [2]int{instrumented.Accepted, instrumented.MovedShards})
	}
}

// TestRecorderParallelRestarts checks that the restart portfolio flushes
// once per restart and the obs.SolverRecorder implementation is race-free
// under it (meaningful with -race).
func TestRecorderParallelRestarts(t *testing.T) {
	p := smallInstance(t, 7, 2)
	cfg := quickConfig()
	cfg.Iterations = 200
	reg := obs.NewRegistry()
	cfg.Recorder = obs.NewSolverRecorder(reg)
	const restarts = 4
	if _, err := New(cfg).SolvePartitioned(p, PartitionConfig{Restarts: restarts}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "rex_solver_runs_total 4\n") {
		t.Fatalf("expected 4 recorded runs:\n%s", out)
	}
	if !strings.Contains(out, "rex_solver_iterations_total{") {
		t.Fatalf("missing per-operator iteration counters:\n%s", out)
	}
	if problems := obs.LintExposition(strings.NewReader(out)); len(problems) != 0 {
		t.Fatalf("solver metrics fail lint: %v", problems)
	}
}
