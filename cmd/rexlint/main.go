// Command rexlint is the project's static-analysis gate: a multichecker
// over the custom go/analysis-style suite in internal/lint. It typechecks
// the requested packages from source (module-local and standard-library
// imports only — this module has no external dependencies by policy),
// builds the module-local call graph and one summary of each function's
// own effects, and reports determinism and correctness hazards. Analyzers
// that look past a function read a module callee's summary at the call,
// one hop deep, or its directive (//rexlint:noalloc, //rexlint:pure):
//
//	noglobalrand  global math/rand use (breaks seed reproducibility)
//	maporder      order-dependent slices built from map iteration
//	floateq       exact float ==/!= in objective/metrics code
//	errignore     dropped error returns, incl. sticky Close/Err/Flush results
//	metricname    Prometheus naming conventions on obs registrations
//	lockcheck     guarded-by annotations: unlocked access, lock leaks,
//	              blocking calls under a lock — including callees whose own
//	              sites block or unlock (CFG + dataflow, one hop)
//	statecheck    declared state-machine transitions along all paths
//	clockpurity   wall-clock access outside the ctl.Clock seam, including
//	              stored-then-called time functions and module-local callees
//	              whose own sites read the clock (flow-sensitive, one hop)
//	leakcheck     goroutines with no reachable termination path
//	sharecheck    single-owner discipline for //rexlint:owned types: an
//	              owned value may not escape to a goroutine, channel,
//	              global, second owner, or a callee parameter that escapes
//	              there, without a //rexlint:transfer
//	alloccheck    //rexlint:noalloc functions allocation-free on every
//	              path: own sites, unannotated callees one hop deep, and
//	              the directive on any callee that calls further
//	purity        //rexlint:pure functions free of side effects, callees
//	              read as alloccheck reads them
//	streamflow    RNG stream isolation, one function at a time: values
//	              from rng.Partitioned.Stream or a //rexlint:stream function
//	              returning *rand.Rand carry their stream name as taint;
//	              functions declare the streams they draw or pass along
//	              (//rexlint:stream), callees are checked by their own
//	              declaration, and stream names must be named constants
//	detflow       within a function, map/select-ordered values must be
//	              sorted before reaching a //rexlint:detsink (journal
//	              writes, Prometheus exposition, fixed-format reports),
//	              and no sink is called inside a map range
//	nonneg        every write that can take a //rexlint:nonneg counter
//	              below 0 (a decrement, a negative step or constant) is a
//	              finding unless a waiver names the invariant
//
// Unused //rexlint:ignore and //rexlint:transfer directives are themselves
// errors (pseudo-analyzers "rexlint" and "sharecheck"), so stale waivers
// cannot outlive the finding they excused, and so is a //rexlint:<kind>
// comment of a kind no analyzer reads (pseudo-analyzer "rexlint"), so a
// misspelt or retired directive cannot pass for a contract.
//
// Usage:
//
//	go run ./cmd/rexlint ./...
//	go run ./cmd/rexlint -tags debugasserts ./...
//	go run ./cmd/rexlint -json ./internal/core ./internal/plan
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load failure.
// Suppress a finding with a trailing or preceding comment:
//
//	//rexlint:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rexchange/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	tags := flag.String("tags", "", "comma-separated build tags for module file selection (e.g. debugasserts)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rexlint [-list] [-json] [-tags t1,t2] <package patterns>\nexample: go run ./cmd/rexlint ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(options{list: *list, jsonOut: *jsonOut, tags: *tags}, flag.Args()))
}

type options struct {
	list, jsonOut bool
	tags          string
}

// jsonDiag is the machine-readable diagnostic record emitted by -json.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(opts options, patterns []string) int {
	modDir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(modDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexlint:", err)
		return 2
	}
	if opts.tags != "" {
		loader.SetBuildTags(strings.Split(opts.tags, ","))
	}
	analyzers := lint.Analyzers(loader.ModPath)
	if opts.list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexlint:", err)
		return 2
	}

	// One program over every package the loader typechecked (a superset
	// of the analyzed patterns), so a callee in another package can be
	// read at its call sites.
	prog := lint.NewProgram(loader.Packages())

	var all []lint.Diagnostic
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzersIn(prog, pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rexlint:", err)
			return 2
		}
		for _, d := range diags {
			if rel, err := filepath.Rel(modDir, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
			all = append(all, d)
		}
	}

	out := make([]jsonDiag, 0, len(all))
	for _, d := range all {
		out = append(out, jsonDiag{
			File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	if opts.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "rexlint:", err)
			return 2
		}
	} else {
		for _, d := range out {
			fmt.Printf("%s:%d:%d: %s (%s)\n", d.File, d.Line, d.Column, d.Message, d.Analyzer)
		}
	}
	if len(out) > 0 {
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
