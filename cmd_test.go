package rexchange

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one cmd/ binary into dir and returns its path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
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
	clustergen := buildTool(t, dir, "clustergen")
	rebalance := buildTool(t, dir, "rebalance")

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
	srabench := buildTool(t, dir, "srabench")
	out := runTool(t, srabench, "-quick", "-run", "F4")
	if !strings.Contains(out, "== F4:") || !strings.Contains(out, "best-objective") {
		t.Errorf("srabench output:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	rebalance := buildTool(t, dir, "rebalance")
	// missing inputs must fail with a message, not panic
	cmd := exec.Command(rebalance)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Errorf("rebalance with no input should fail:\n%s", out)
	}
	if !strings.Contains(string(out), "rebalance:") {
		t.Errorf("error output should be prefixed:\n%s", out)
	}

	// A NaN simulator parameter is a named error and exit status 1.
	rexsim := buildTool(t, dir, "rexsim")
	out, err = exec.Command(rexsim, "-machines", "10", "-shards", "60", "-rounds", "1", "-util", "NaN").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "TargetUtil") {
		t.Errorf("rexsim -util NaN: %v, want exit status 1 naming TargetUtil:\n%s", err, out)
	}
}
