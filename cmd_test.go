package rexchange

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTool compiles the main package at pkg (relative to the module
// root, e.g. "cmd/rebalance") into dir, named after its last path element,
// and returns its path.
func buildTool(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// runTool executes a built binary and returns combined output.
func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	clustergen := buildTool(t, dir, "cmd/clustergen")
	rebalance := buildTool(t, dir, "cmd/rebalance")

	// 1. generate a placement JSON, a CSV snapshot, and a trace
	placement := filepath.Join(dir, "p.json")
	snapPrefix := filepath.Join(dir, "snap")
	trace := filepath.Join(dir, "t.csv")
	out := runTool(t, clustergen,
		"-machines", "12", "-shards", "120", "-fill", "0.8",
		"-placement", placement, "-snapshot", snapPrefix,
		"-trace", trace, "-rate", "50", "-duration", "10")
	for _, want := range []string{"instance:", "placement →", "snapshot →", "trace:"} {
		if !strings.Contains(out, want) {
			t.Errorf("clustergen output missing %q:\n%s", want, out)
		}
	}
	for _, f := range []string{placement, snapPrefix + "-machines.csv", snapPrefix + "-shards.csv", trace} {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("expected output file %s: %v", f, err)
		}
	}

	// 2. rebalance from JSON with SRA
	out = runTool(t, rebalance, "-in", placement, "-k", "2", "-iters", "300", "-simulate")
	for _, want := range []string{"before:", "after:", "returned machines:", "migration:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rebalance output missing %q:\n%s", want, out)
		}
	}

	// 3. rebalance from the CSV snapshot with a baseline
	out = runTool(t, rebalance,
		"-machines-csv", snapPrefix+"-machines.csv",
		"-shards-csv", snapPrefix+"-shards.csv",
		"-method", "local-search", "-k", "0")
	if !strings.Contains(out, "after:") {
		t.Errorf("snapshot rebalance output:\n%s", out)
	}
}

func TestCLISrabenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	srabench := buildTool(t, dir, "cmd/srabench")
	out := runTool(t, srabench, "-quick", "-run", "F4")
	if !strings.Contains(out, "== F4:") || !strings.Contains(out, "best-objective") {
		t.Errorf("srabench output:\n%s", out)
	}
}

// TestExampleQuickstart runs the one example program. Its plan stages a
// shard through the borrowed machine: some move goes into an exchange
// machine, a later move leaves it, and a machine is handed back. The exact
// moves are the solver's to choose, so only that shape is checked.
func TestExampleQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	out := runTool(t, buildTool(t, t.TempDir(), "examples/quickstart"))
	into, leave := -1, -1
	for i, line := range strings.Split(out, "\n") {
		from, to, ok := strings.Cut(line, " → ")
		if !ok {
			continue
		}
		if into < 0 && strings.HasPrefix(to, "exchange-") {
			into = i
		}
		if into >= 0 && i > into && strings.Contains(from, " exchange-") {
			leave = i
		}
	}
	if into < 0 || leave < 0 {
		t.Errorf("no move stages through an exchange machine:\n%s", out)
	}
	_, returned, ok := strings.Cut(out, "returned as compensation:")
	if !ok || strings.TrimSpace(returned) == "" {
		t.Errorf("no machine returned as compensation:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	rebalance := buildTool(t, dir, "cmd/rebalance")
	// missing inputs must fail with a message, not panic
	cmd := exec.Command(rebalance)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Errorf("rebalance with no input should fail:\n%s", out)
	}
	if !strings.Contains(string(out), "rebalance:") {
		t.Errorf("error output should be prefixed:\n%s", out)
	}

	// A negative count is refused by flag name: without the checks -k -1
	// borrows no machine and -restarts -1 runs the default portfolio.
	var exit *exec.ExitError
	for _, tc := range []struct{ flag, value string }{{"-k", "-1"}, {"-restarts", "-1"}} {
		out, err = exec.Command(rebalance, "-generate", "-machines", "20", "-shards", "100", "-iters", "50", tc.flag, tc.value).CombinedOutput()
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), tc.flag+" must be non-negative") {
			t.Errorf("rebalance %s %s: %v, want exit status 1 naming %s:\n%s", tc.flag, tc.value, err, tc.flag, out)
		}
	}

	// A NaN load skew is refused by name before anything is written;
	// without the check JSON encoding fails on the NaN loads.
	clustergen := buildTool(t, dir, "cmd/clustergen")
	out, err = exec.Command(clustergen, "-machines", "20", "-shards", "100", "-skew", "NaN",
		"-placement", filepath.Join(dir, "nan.json")).CombinedOutput()
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "LoadSkew") {
		t.Errorf("clustergen -skew NaN: %v, want exit status 1 naming LoadSkew:\n%s", err, out)
	}

	// A NaN simulator parameter is a named error and exit status 1.
	rexsim := buildTool(t, dir, "cmd/rexsim")
	out, err = exec.Command(rexsim, "-machines", "10", "-shards", "60", "-rounds", "1", "-util", "NaN").CombinedOutput()
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "TargetUtil") {
		t.Errorf("rexsim -util NaN: %v, want exit status 1 naming TargetUtil:\n%s", err, out)
	}

	// A NaN solve cost is refused before the campaign runs; without the
	// check the simulator clock is handed a NaN target, so the run is
	// bounded by a short timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err = exec.CommandContext(ctx, rexsim, "-machines", "20", "-shards", "100", "-rounds", "2",
		"-variants", "solve", "-solve-cost", "NaN").CombinedOutput()
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "SolveSeconds") {
		t.Errorf("rexsim -solve-cost NaN: %v, want exit status 1 naming SolveSeconds:\n%s", err, out)
	}

	// A NaN watermark would never trigger a solve; it is refused instead.
	out, err = exec.CommandContext(ctx, rexsim, "-machines", "20", "-shards", "100", "-rounds", "2",
		"-variants", "solve", "-high", "NaN").CombinedOutput()
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "HighWater") {
		t.Errorf("rexsim -high NaN: %v, want exit status 1 naming HighWater:\n%s", err, out)
	}

	// A NaN fill is refused by the generator, before the simulator sees
	// NaN shard loads.
	out, err = exec.CommandContext(ctx, rexsim, "-machines", "20", "-shards", "100", "-rounds", "2",
		"-fill", "NaN").CombinedOutput()
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "TargetFill") {
		t.Errorf("rexsim -fill NaN: %v, want exit status 1 naming TargetFill:\n%s", err, out)
	}

	// A negative cost spread would draw unit costs against a calibration
	// that divides by exp(σ²/2); it is refused by name.
	out, err = exec.CommandContext(ctx, rexsim, "-machines", "20", "-shards", "100", "-rounds", "2",
		"-cost-sigma", "-1").CombinedOutput()
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "CostSigma") {
		t.Errorf("rexsim -cost-sigma -1: %v, want exit status 1 naming CostSigma:\n%s", err, out)
	}

	// rexd refuses a NaN window, a NaN drift, a NaN fill and a negative
	// -k by name. Without the checks the first dies later on a NaN
	// snapshot (and -rounds 0 runs until interrupted, hence the timeout),
	// the second runs as -drift 0, the third dies on a NaN snapshot load
	// and the last borrows no machine.
	rexd := buildTool(t, dir, "cmd/rexd")
	for _, tc := range []struct {
		args []string
		name string
	}{
		{[]string{"-rounds", "0", "-window", "NaN"}, "Window"},
		{[]string{"-rounds", "4", "-drift", "NaN"}, "drift sigma"},
		{[]string{"-rounds", "4", "-fail-rate", "NaN"}, "-fail-rate"},
		{[]string{"-rounds", "4", "-fail-rate", "1"}, "-fail-rate"},
		{[]string{"-rounds", "2", "-fill", "NaN"}, "TargetFill"},
		{[]string{"-rounds", "2", "-k", "-1"}, "-k must be non-negative"},
	} {
		args := append([]string{"-virtual", "-machines", "20", "-shards", "100"}, tc.args...)
		out, err = exec.CommandContext(ctx, rexd, args...).CombinedOutput()
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), tc.name) {
			t.Errorf("rexd %s: %v, want exit status 1 naming %s:\n%s", strings.Join(tc.args, " "), err, tc.name, out)
		}
	}
}
