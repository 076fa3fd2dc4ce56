package lint

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, typechecked package.
type Package struct {
	Path    string // import path
	ModPath string // module path of the loader that produced it
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File // non-test files matching the build context
	Types   *types.Package
	Info    *types.Info
}

// Loader parses and typechecks the module's packages from source, with
// no external dependencies and no network: module-local import paths
// resolve to directories under the module root, and everything else must
// be in the standard library. This restricts rexlint to dependency-free
// modules — which this repository is, by policy.
//
// The standard library is not parsed at all. Analyzers classify calls
// into it by name against known tables, never by reading its bodies, so
// only its package-scope API matters, and the compiler's export data holds
// exactly that. Once per build-tag set the loader runs the go command —
// `go list -export -deps` over the standard-library imports of the
// requested packages, offline, and again only for an import no earlier
// call named — and reads the export files it names through go/importer.
// It therefore needs `go` on PATH and a writable build cache; the first
// call in a cold cache compiles the closure once.
//
// Standard-library packages are imported once per process, not once per
// Loader: every Loader shares the stdCache below, so a whole-repo
// `rexlint ./...` run (and equally the fixture test harness, which builds
// one Loader per fixture) lists and imports the closure once. Module
// packages get a full parse and a full types.Info.
type Loader struct {
	ModPath string // module path from go.mod
	ModDir  string // module root directory

	fset   *token.FileSet
	ctx    build.Context
	std    *stdCache
	pkgs   map[string]*Package
	parsed map[string][]*ast.File // dir → parsed files (expand + load share one parse)
}

// stdCache is one process-wide cache of standard-library packages (and
// those vendored into it) for one build-tag set. exports maps each import
// path `go list` has named to its export file; imp is one gc importer
// over them, so every Loader with the same tags gets the same
// *types.Package per path. The importer keeps its own FileSet (positions
// inside imported packages are never rendered in diagnostics). One mutex
// serializes the go list calls and the importer, which is not safe for
// concurrent use.
type stdCache struct {
	mu      sync.Mutex
	tags    []string
	exports map[string]string
	imp     types.Importer
}

// stdCaches holds one stdCache per build-tag key. Caches are keyed by the
// tags they were listed under: a `rexlint -tags debugasserts ./...` run
// after a default run must not reuse facts selected without the tag
// (stdlib file selection honors build constraints — netgo, purego, and
// friends — so sharing a cache across tag sets would be unsound even
// though this module's own tags never appear in GOROOT sources). Loaders
// with the same tag set still share one cache, so a whole-repo run lists
// the closure once per build mode.
var stdCaches = struct {
	mu    sync.Mutex
	byKey map[string]*stdCache
}{byKey: make(map[string]*stdCache)}

// stdCacheFor returns the shared stdlib cache for the given build tags,
// creating it on first use. The key is order-insensitive.
func stdCacheFor(tags []string) *stdCache {
	sorted := append([]string(nil), tags...)
	sort.Strings(sorted)
	key := strings.Join(sorted, ",")
	stdCaches.mu.Lock()
	defer stdCaches.mu.Unlock()
	if c, ok := stdCaches.byKey[key]; ok {
		return c
	}
	c := newStdCache(sorted)
	stdCaches.byKey[key] = c
	return c
}

// newStdCache returns an empty stdlib cache for the given build tags.
func newStdCache(tags []string) *stdCache {
	c := &stdCache{tags: append([]string(nil), tags...), exports: make(map[string]string)}
	c.imp = importer.ForCompiler(token.NewFileSet(), "gc", c.open)
	return c
}

// NewLoader creates a Loader for the module rooted at modDir. The module
// path is read from go.mod.
func NewLoader(modDir string) (*Loader, error) {
	modPath, err := readModulePath(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.CgoEnabled = false
	return &Loader{
		ModPath: modPath,
		ModDir:  modDir,
		fset:    token.NewFileSet(),
		ctx:     ctx,
		std:     stdCacheFor(nil),
		pkgs:    make(map[string]*Package),
		parsed:  make(map[string][]*ast.File),
	}, nil
}

// SetBuildTags sets the build tags honored when selecting module files
// (e.g. "debugasserts"). Must be called before the first Load. The loader
// also switches to the shared stdlib cache keyed by the same tags, so
// facts typechecked under one tag set are never reused under another.
func (l *Loader) SetBuildTags(tags []string) {
	l.ctx.BuildTags = append([]string(nil), tags...)
	l.std = stdCacheFor(tags)
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("lint: read module file: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", path)
}

// moduleLocal reports whether path names this module or a package inside
// it.
func (l *Loader) moduleLocal(path string) bool {
	return path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/")
}

// moduleDir resolves a module-local import path to its source directory.
func (l *Loader) moduleDir(path string) string {
	if path == l.ModPath {
		return l.ModDir
	}
	rest := strings.TrimPrefix(path, l.ModPath+"/")
	return filepath.Join(l.ModDir, filepath.FromSlash(rest))
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.moduleLocal(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.loadStd(path)
}

// loadStd returns the cache's imported stdlib package for path, listing
// it first if no earlier go list call named it.
func (c *stdCache) loadStd(path string) (*types.Package, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.listLocked([]string{path}); err != nil {
		return nil, err
	}
	return c.imp.Import(path)
}

// list makes sure the cache knows the export file of every path in paths
// and of its standard-library closure.
func (c *stdCache) list(paths []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.listLocked(paths)
}

// listLocked runs one `go list -export -deps` over the paths the cache
// does not know yet, which compiles whatever the build cache lacks, and
// records the export file of every standard-library package it names.
// With -e a path outside the standard library does not fail the call; it
// is just never recorded, and open refuses it by name. The child runs
// without cgo (as the module's own files are selected), with the module
// proxy off and the local toolchain pinned, so it never reaches the
// network.
func (c *stdCache) listLocked(paths []string) error {
	args := []string{"list", "-e", "-export", "-deps", "-f", "{{if .Standard}}{{.ImportPath}} {{.Export}}{{end}}"}
	if len(c.tags) > 0 {
		args = append(args, "-tags", strings.Join(c.tags, ","))
	}
	n := len(args)
	for _, p := range paths {
		if _, ok := c.exports[p]; !ok {
			args = append(args, p)
		}
	}
	if len(args) == n {
		return nil
	}
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOPROXY=off", "GOTOOLCHAIN=local")
	out, err := cmd.Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%w: %s", err, bytes.TrimSpace(exit.Stderr))
		}
		return fmt.Errorf("lint: go list: %w", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			c.exports[path] = file
		}
	}
	return nil
}

// open is the gc importer's lookup: it opens the export file go list
// named for path. It runs under the cache lock, inside imp.Import.
func (c *stdCache) open(path string) (io.ReadCloser, error) {
	file, ok := c.exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: cannot resolve import %q (only module-local and standard-library imports are supported)", path)
	}
	return os.Open(file)
}

// load parses and typechecks the module-local package at the given import
// path, memoizing the result.
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if !l.moduleLocal(path) {
		return nil, fmt.Errorf("lint: %q is not a module-local package", path)
	}
	dir := l.moduleDir(path)
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	pkg, err := l.check(path, dir, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadDir typechecks a single directory under the given synthetic import
// path, without registering it for import by other packages. It is used by
// the analyzer test harness on testdata fixtures.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	return l.check(asPath, dir, files)
}

// check typechecks parsed files as one target package, with the full
// types.Info analyzers need.
func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor(l.ctx.Compiler, l.ctx.GOARCH),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return &Package{
		Path: path, ModPath: l.ModPath, Dir: dir,
		Fset: l.fset, Files: files, Types: tpkg, Info: info,
	}, nil
}

// parseDir parses the buildable non-test Go files of dir under the
// loader's build context, memoized so pattern expansion and loading share
// one parse. Files are read and parsed concurrently: token.FileSet is
// documented as safe for concurrent use. Results keep directory order so
// positions and declaration order stay deterministic run to run.
// SkipObjectResolution: go/types resolves identifiers itself and no
// analyzer reads the parser's ast.Object links.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	if files, ok := l.parsed[dir]; ok {
		return files, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := l.ctx.MatchFile(dir, name)
		if err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	files := make([]*ast.File, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			files[i], errs[i] = parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
	}
	l.parsed[dir] = files
	return files, nil
}

// Packages returns every module-local package this loader has typechecked
// so far — the requested targets plus their module-local import closure —
// sorted by import path. NewProgram is built over this set so call edges
// can cross package boundaries.
func (l *Loader) Packages() []*Package {
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, l.pkgs[p])
	}
	return out
}

// Load resolves the given package patterns (import paths relative to the
// module root; a trailing "/..." matches the whole subtree) and returns the
// loaded packages in deterministic order. Directories named testdata or
// vendor and hidden directories are skipped. The standard-library
// imports of the expanded packages are listed in one go list call before
// any package is typechecked.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	paths, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var std []string
	for _, p := range paths {
		for _, f := range l.parsed[l.moduleDir(p)] {
			for _, spec := range f.Imports {
				imp, err := strconv.Unquote(spec.Path.Value)
				if err == nil && imp != "unsafe" && !l.moduleLocal(imp) && !seen[imp] {
					seen[imp] = true
					std = append(std, imp)
				}
			}
		}
	}
	sort.Strings(std)
	if err := l.std.list(std); err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// expand turns patterns into a sorted list of import paths that contain
// buildable Go files.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(importPath, dir string) error {
		if seen[importPath] {
			return nil
		}
		files, err := l.parseDir(dir)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil // test-only or empty directory
		}
		seen[importPath] = true
		out = append(out, importPath)
		return nil
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		recursive := false
		if pat == "..." {
			pat, recursive = "", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		root := filepath.Join(l.ModDir, filepath.FromSlash(pat))
		if !recursive {
			importPath := l.ModPath
			if pat != "" {
				importPath += "/" + pat
			}
			if err := add(importPath, root); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(l.ModDir, p)
			if err != nil {
				return err
			}
			importPath := l.ModPath
			if rel != "." {
				importPath += "/" + filepath.ToSlash(rel)
			}
			return add(importPath, p)
		})
		if err != nil {
			return nil, fmt.Errorf("lint: expand %q: %w", pat, err)
		}
	}
	sort.Strings(out)
	return out, nil
}
