package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const resultSchema = "rexbench/1"

// hostFingerprint says where and on what a result file was measured.
type hostFingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Source     string `json:"source_sha256"` // sourceInventory of the measured tree
}

// fingerprint reads the host and, when the tree is a git checkout, the
// commit. A checkout without git reports commit "unknown"; the source
// digest names the measured tree either way.
func fingerprint(modDir string) hostFingerprint {
	h := hostFingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: "unknown", Commit: "unknown", Source: "unknown",
	}
	if digest, _, err := sourceInventory(modDir); err == nil {
		h.Source = digest
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "-C", modDir, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "-C", modDir, "status", "--porcelain").Output()
		h.Dirty = err != nil || len(status) > 0
	}
	return h
}

// workloadResult is one workload's two passes merged.
type workloadResult struct {
	Name      string                `json:"name"`
	EndToEnd  map[string]metricStat `json:"end_to_end"`
	PerLayer  map[string]metricStat `json:"per_layer"`
	Digests   map[string]string     `json:"digests"`
	Correct   bool                  `json:"correct"`
	Failures  []string              `json:"failures,omitempty"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Notes     []string              `json:"notes,omitempty"`
}

// merge folds one pass into the workload's result. The untraced pass
// comes first and sets the counts; digests must agree between passes.
func (w *workloadResult) merge(d *runDetail) {
	if !d.Trace {
		w.EndToEnd, w.Digests = d.Metrics, d.Digests
		w.Correct, w.Attempted, w.Failed, w.Notes = d.Correct, d.Attempted, d.Failed, d.Notes
		w.Failures = d.Failures
		return
	}
	w.PerLayer = d.Metrics
	w.Correct = w.Correct && d.Correct
	w.Failures = append(w.Failures, d.Failures...)
	for k, v := range d.Digests {
		if w.Digests[k] != v {
			w.Correct = false
			w.Failures = append(w.Failures, fmt.Sprintf("digest.%s: traced pass %s, untraced pass %s", k, v, w.Digests[k]))
		}
	}
}

// resultFile is the one schema every rexbench run writes.
type resultFile struct {
	Schema    string           `json:"schema"`
	Host      hostFingerprint  `json:"host"`
	Seed      int64            `json:"seed"`
	Reps      int              `json:"reps"`
	Seconds   float64          `json:"seconds,omitempty"`
	Quick     bool             `json:"quick,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

func (r *resultFile) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &resultFile{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return r, nil
}

// verdict of one workload x metric pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictChanged    = "changed"
)

// judge compares one metric between a baseline and a candidate of the same
// seed. A metric with a same-seed bound regresses when the candidate's
// median is worse by more than the bound, and is unresolved when either
// side's interquartile spread is wider than the bound; a difference within
// the metric's floor is not judged; an exact metric may not differ at all.
func judge(spec metricSpec, a, b metricStat) (worse float64, verdict string) {
	if spec.Exact {
		if a.Value != b.Value {
			return 0, verdictChanged
		}
		return 0, verdictOK
	}
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if spec.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case math.Abs(b.Value-a.Value) <= spec.Floor:
		return worse, verdictOK
	case worse > spec.Same:
		return worse, verdictRegressed
	case a.spread() > spec.Same || b.spread() > spec.Same:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// compareFiles prints, per workload and end-to-end or memory metric, both medians,
// the candidate's ratio to the baseline, the bound and the verdict; then
// every exact-repeat metric and digest that differs. It returns 1 when
// anything regressed or changed.
func compareFiles(pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(pathB); err == nil {
			return compareResults(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "rexbench:", err)
	return 2
}

func compareResults(a, b *resultFile) int {
	for _, side := range []struct {
		name string
		r    *resultFile
	}{{"baseline: ", a}, {"candidate:", b}} {
		h := side.r.Host
		fmt.Printf("%s commit %s dirty %v source %.12s, %s, nproc %d, %s, seed %d\n", side.name, h.Commit, h.Dirty, h.Source, h.CPU, h.NProc, h.GoVersion, side.r.Seed)
	}
	if a.Seed != b.Seed {
		fmt.Println("note: seeds differ: the bounds are for two runs of one seed, and exact-repeat metrics and digests are expected to differ")
	}
	byName := make(map[string]workloadResult)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	bad := 0
	fmt.Printf("%-22s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "ratio", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Printf("%-22s missing from the candidate\n", wa.Name)
			bad++
			continue
		}
		for _, spec := range untraced {
			ma, mb := wa.EndToEnd[spec.Name], wb.EndToEnd[spec.Name]
			_, verdict := judge(spec, ma, mb)
			ratio := 0.0
			if ma.Value != 0 {
				ratio = mb.Value / ma.Value
			}
			fmt.Printf("%-22s %-16s %14.6g %14.6g %8.4f %6.0f%%  %s\n", wa.Name, spec.Name, ma.Value, mb.Value, ratio, spec.Same*100, verdict)
			if verdict == verdictRegressed {
				bad++
			}
		}
		for _, spec := range perLayer {
			ma, mb := wa.PerLayer[spec.Name], wb.PerLayer[spec.Name]
			if _, verdict := judge(spec, ma, mb); spec.Exact && verdict != verdictOK {
				fmt.Printf("%-22s %-36s %.10g -> %.10g  %s\n", wa.Name, spec.Name, ma.Value, mb.Value, verdict)
				bad++
			}
		}
		keys := make([]string, 0, len(wa.Digests))
		for k := range wa.Digests {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if wa.Digests[k] != wb.Digests[k] {
				fmt.Printf("%-22s digest %-29s %.12s -> %.12s  %s\n", wa.Name, k, wa.Digests[k], wb.Digests[k], verdictChanged)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d regressed or changed\n", bad)
		return 1
	}
	fmt.Println("no regression")
	return 0
}
