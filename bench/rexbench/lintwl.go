package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rexchange/internal/lint"
)

// lintWL is lint_module: rexlint's own pipeline (NewLoader, Load,
// NewProgram, RunAnalyzersIn) over the module at the commit under test.
// The standard-library type-check cache is process-global and CI pays the
// cold cost on every run, so each repetition runs in a fresh child
// process of this binary.
type lintWL struct {
	modDir   string
	patterns []string
	inProc   bool // quick scale: no child, a warm cache is accepted

	source string // digest of the linted tree, from setup
	files  int
}

func newLintWL(o runOpts) (*lintWL, error) {
	modDir, err := findModuleRoot()
	if err != nil {
		return nil, err
	}
	w := &lintWL{modDir: modDir, patterns: []string{"./..."}}
	if o.quick {
		w.patterns, w.inProc = []string{"./internal/vec", "./internal/rng"}, true
	}
	return w, nil
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
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

func (w *lintWL) setupLayer() values { return nil }

// setup inventories the tree that will be linted, so a result file's
// notes say which source its lines-per-second figure was measured on.
func (w *lintWL) setup() (err error) {
	w.source, w.files, err = sourceInventory(w.modDir)
	return err
}

// sourceInventory hashes every non-test Go file under the module in path
// order and counts them. The digest names the measured tree where the
// commit cannot: in a checkout without git, or with uncommitted changes.
func sourceInventory(modDir string) (digest string, files int, err error) {
	var paths []string
	err = filepath.WalkDir(modDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != modDir && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", 0, err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", 0, err
		}
		rel, _ := filepath.Rel(modDir, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), len(paths), nil
}

// lintSpan is one phase of the pipeline, in nanoseconds since the child
// started linting.
type lintSpan struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// lintResult is what one pass over the module measured; the child prints
// it as JSON.
type lintResult struct {
	Spans       []lintSpan `json:"spans"`
	Packages    int        `json:"packages"`
	Lines       int        `json:"lines"`
	Diagnostics []string   `json:"diagnostics"`
	AllocMB     float64    `json:"alloc_mb"`
	PeakRSSMB   float64    `json:"peak_rss_mb"`
}

// lintOnce runs the pipeline. Untraced it is rexlint's own loop, every
// analyzer over one package at a time; split runs one analyzer over every
// package at a time, in lint.Analyzers order, so each has its own span.
func lintOnce(modDir string, patterns []string, split bool) (*lintResult, error) {
	res := &lintResult{}
	t0 := time.Now()
	phase := func(name string, f func() error) error {
		start := time.Since(t0)
		err := f()
		res.Spans = append(res.Spans, lintSpan{Name: name, Start: int64(start), End: int64(time.Since(t0))})
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var pkgs []*lint.Package
	var loader *lint.Loader
	if err := phase("lint.load", func() (err error) {
		if loader, err = lint.NewLoader(modDir); err != nil {
			return err
		}
		pkgs, err = loader.Load(patterns)
		return err
	}); err != nil {
		return nil, err
	}
	var prog *lint.Program
	phase("lint.program", func() error {
		prog = lint.NewProgram(loader.Packages())
		return nil
	})
	analyzers := lint.Analyzers(loader.ModPath)
	run := func(as []*lint.Analyzer) error {
		for _, pkg := range pkgs {
			diags, err := lint.RunAnalyzersIn(prog, pkg, as)
			if err != nil {
				return err
			}
			for _, d := range diags {
				res.Diagnostics = append(res.Diagnostics, d.String())
			}
		}
		return nil
	}
	// The per-analyzer spans nest inside lint.analyzers, which is
	// appended after them.
	if err := phase("lint.analyzers", func() error {
		if !split {
			return run(analyzers)
		}
		for _, a := range analyzers {
			if err := phase("lint.analyzer."+a.Name, func() error { return run([]*lint.Analyzer{a}) }); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	runtime.ReadMemStats(&m1)
	res.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mb
	res.PeakRSSMB = peakRSSMB()
	res.Packages = len(pkgs)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			res.Lines += pkg.Fset.File(f.Pos()).LineCount()
		}
	}
	return res, nil
}

// lintChildMain is the child process: one cold pass, JSON on stdout.
func lintChildMain(split bool) int {
	modDir, err := findModuleRoot()
	if err == nil {
		var res *lintResult
		if res, err = lintOnce(modDir, []string{"./..."}, split); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexbench: lint child:", err)
		return 1
	}
	return 0
}

func (w *lintWL) warmup() (*outcome, error) { return w.rep(nil) }

func (w *lintWL) rep(t *tracer) (*outcome, error) {
	var res *lintResult
	pass := t.begin("harness.lint_pass")
	if w.inProc {
		var err error
		if res, err = lintOnce(w.modDir, w.patterns, t != nil); err != nil {
			return nil, err
		}
	} else {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		args := []string{"-lint-child"}
		if t != nil {
			args = append(args, "-lint-split")
		}
		cmd := exec.Command(exe, args...)
		cmd.Dir = w.modDir
		cmd.Stderr = os.Stderr
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("lint child: %w", err)
		}
		res = &lintResult{}
		if err := json.Unmarshal(stdout.Bytes(), res); err != nil {
			return nil, fmt.Errorf("lint child output: %w", err)
		}
	}
	t.end(pass)
	if t != nil {
		// Replay the pass's phases as spans under it. Its clock started
		// after process start-up, so align the two ends. The analyzers
		// phase is listed last and parents the per-analyzer spans.
		n := len(res.Spans)
		an := res.Spans[n-1]
		offset := t.spans[pass].End - an.End
		anID := t.addUnder(pass, an.Name, offset+an.Start, offset+an.End)
		for _, s := range res.Spans[:n-1] {
			parent := pass
			if strings.HasPrefix(s.Name, "lint.analyzer.") {
				parent = anID
			}
			t.addUnder(parent, s.Name, offset+s.Start, offset+s.End)
		}
	}
	o := &outcome{
		work:      float64(res.Lines) / 1000,
		attempted: res.Packages,
		failed:    len(res.Diagnostics),
		layer: values{
			"lint.packages":    float64(res.Packages),
			"lint.klines":      float64(res.Lines) / 1000,
			"lint.diagnostics": float64(len(res.Diagnostics)),
		},
		art: res,
	}
	if !w.inProc {
		o.allocMB, o.peakRSSMB = res.AllocMB, res.PeakRSSMB
	}
	// The inventory is a note, not a digest: it differs between any two
	// commits, which is not a change in what the linter computed.
	o.notes = append(o.notes, fmt.Sprintf("%d packages, %d lines analysed; %d source files inventoried, sha256 %s", res.Packages, res.Lines, w.files, w.source))
	return o, nil
}

func (w *lintWL) check(g *gate, o *outcome) {
	res := o.art.(*lintResult)
	g.check(len(res.Diagnostics) == 0, "lint.diagnostics", "%d diagnostics: %v", len(res.Diagnostics), res.Diagnostics)
	g.check(res.Packages > 0 && res.Lines > 0, "lint.loaded", "%d packages, %d lines", res.Packages, res.Lines)
}

func (w *lintWL) probes(o *outcome, wallS float64, m values) error { return nil }
