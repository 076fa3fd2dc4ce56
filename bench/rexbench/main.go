// Command rexbench is the repository's one measurement harness: seven
// named workloads, end-to-end and per-layer numbers for solver, control
// loop, simulator, journal and linter, a correctness gate, and a compare
// mode. README.md beside this file has the tables.
//
//	go run ./bench/rexbench                      # every workload, result file in bench/rexbench/out
//	go run ./bench/rexbench -workload sim_steady # one workload, both passes
//	go run ./bench/rexbench -compare a.json b.json
//	go run ./bench/rexbench -workload NAME -seed N -seconds S -trace 0|1
//
// The last form is one run of one pass in this process and ends with the
// one-line JSON result BENCHMARK.json's driver reads; the first two
// re-execute this binary in that form once per workload and pass, so
// peak_rss_mb and collector state are per workload.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all)")
		seed         = flag.Int64("seed", 1, "seed the inputs are generated from")
		reps         = flag.Int("reps", 5, "timed repetitions per workload when -seconds is 0")
		seconds      = flag.Float64("seconds", 0, "measure for this long instead of -reps repetitions (at least 3)")
		trace        = flag.Int("trace", -1, "0: one untraced run in this process; 1: one traced run; default: both, in child processes")
		out          = flag.String("out", "", "result file (default bench/rexbench/out/results-seed<N>.json)")
		quick        = flag.Bool("quick", false, "tiny scale, one repetition: a smoke test, not a measurement")
		compare      = flag.Bool("compare", false, "compare two result files: rexbench -compare a.json b.json")
		lintChild    = flag.Bool("lint-child", false, "internal: one cold lint pass, JSON on stdout")
		lintSplit    = flag.Bool("lint-split", false, "internal: with -lint-child, one analyzer at a time")
	)
	flag.Parse()

	switch {
	case *lintChild:
		os.Exit(lintChildMain(*lintSplit))
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}

	modDir, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	outDir := filepath.Join(modDir, "bench", "rexbench", "out")
	opts := runOpts{workload: *workloadName, seed: *seed, seconds: *seconds, reps: *reps, quick: *quick, outDir: outDir}

	if *trace >= 0 {
		opts.trace = *trace == 1
		d, err := runWorkload(opts)
		if err != nil {
			fatal(err)
		}
		printDetail(d)
		if err := printResultLines(d); err != nil {
			fatal(err)
		}
		if !d.Correct {
			os.Exit(1)
		}
		return
	}

	names := []string{*workloadName}
	if *workloadName == "" {
		names = nil
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	}
	res := &resultFile{Schema: resultSchema, Host: fingerprint(modDir), Seed: *seed, Reps: *reps, Seconds: *seconds, Quick: *quick}
	ok := true
	for _, name := range names {
		wr := workloadResult{Name: name}
		for _, traced := range []bool{false, true} {
			o := opts
			o.workload, o.trace = name, traced
			d, err := runChild(o)
			if err != nil {
				fatal(err)
			}
			printDetail(d)
			wr.merge(d)
		}
		ok = ok && wr.Correct
		res.Workloads = append(res.Workloads, wr)
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, fmt.Sprintf("results-seed%d.json", *seed))
	}
	if err := res.write(path); err != nil {
		fatal(err)
	}
	fmt.Printf("result file: %s\n", path)
	if !ok {
		fmt.Println("FAILED: a correctness check did not pass")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rexbench:", err)
	os.Exit(2)
}

func newWorkload(o runOpts) (bench, error) {
	switch o.workload {
	case "offline_tight", "fleet_partitioned":
		return newSolveWL(o), nil
	case "sim_steady", "campaign_closed_loop", "campaign_traced", "journal_replay":
		return newCampaignWL(o), nil
	case "lint_module":
		return newLintWL(o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

const detailPrefix = "rexbench-detail "

// resultLine is the driver contract's last line of standard output.
type resultLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResultLines prints the run's detail for a parent rexbench and, as
// the last line, the contract's result: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one.
func printResultLines(d *runDetail) error {
	detail, err := json.Marshal(d)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", detailPrefix, detail)
	line := resultLine{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed, Metrics: make(map[string]contractValue)}
	list := endToEnd
	if d.Trace {
		list = perLayer
	}
	for _, spec := range list {
		m, ok := d.Metrics[spec.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", d.Workload, spec.Name)
		}
		line.Metrics[spec.Name] = contractValue{Value: m.Value, Unit: spec.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	return nil
}

// runChild re-executes this binary for one workload and pass, so each
// measurement has a process, a heap and a high-water mark of its own.
func runChild(o runOpts) (*runDetail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10), "-trace", traceArg,
		"-reps", strconv.Itoa(o.reps), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			d := &runDetail{}
			if err := json.Unmarshal([]byte(rest), d); err != nil {
				return nil, err
			}
			return d, nil // an incorrect run exits 1 but still reports
		}
	}
	return nil, fmt.Errorf("%s (trace %s): no result: %v", o.workload, traceArg, runErr)
}
