package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
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

// Loader parses and typechecks packages from source with no external
// dependencies and no network: module-local import paths resolve to
// directories under the module root, and everything else resolves to
// $GOROOT/src. This restricts rexlint to dependency-free modules — which
// this repository is, by policy — in exchange for a fully hermetic,
// offline driver.
//
// Standard-library imports are typechecked once per process, not once per
// Loader: every Loader shares the stdCache below, so a whole-repo
// `rexlint ./...` run (and equally the fixture test harness, which builds
// one Loader per fixture) pays for a single GOROOT pass. Imported
// packages are checked without a types.Info — analyzers only inspect the
// syntax of target packages, and skipping the Defs/Uses/Selections maps
// for the (much larger) import closure is the bulk of the loader's
// speedup.
type Loader struct {
	ModPath string // module path from go.mod
	ModDir  string // module root directory

	fset   *token.FileSet
	ctx    build.Context
	std    *stdCache
	pkgs   map[string]*Package
	parsed map[string][]*ast.File // dir → parsed files (expand + load share one parse)
}

// stdCache is one process-wide cache of typechecked standard-library (and
// $GOROOT/src/vendor) packages for one build-tag set. It uses its own
// FileSet (positions inside imported packages are never rendered in
// diagnostics). One coarse mutex serializes stdlib typechecking; recursive
// imports go through loadStdLocked directly so the lock is taken only at
// the outermost entry.
type stdCache struct {
	mu   sync.Mutex
	fset *token.FileSet
	ctx  build.Context
	pkgs map[string]*types.Package
}

// stdCaches holds one stdCache per build-tag key. Caches are keyed by the
// tags they were typechecked under: a `rexlint -tags debugasserts ./...`
// run after a default run must not reuse facts selected without the tag
// (stdlib file selection honors build constraints — netgo, purego, and
// friends — so sharing a cache across tag sets would be unsound even
// though this module's own tags never appear in GOROOT sources). Loaders
// with the same tag set still share one cache, so a whole-repo run pays
// for a single GOROOT pass per build mode.
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
	ctx := build.Default
	ctx.CgoEnabled = false
	ctx.BuildTags = append([]string(nil), sorted...)
	c := &stdCache{
		fset: token.NewFileSet(),
		ctx:  ctx,
		pkgs: make(map[string]*types.Package),
	}
	stdCaches.byKey[key] = c
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

// stdDir resolves an import path under $GOROOT/src (or its vendor tree).
func (c *stdCache) stdDir(path string) (string, error) {
	dir := filepath.Join(c.ctx.GOROOT, "src", filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir, nil
	}
	// Dependencies vendored into the standard library (net/http pulls in
	// golang.org/x/... this way) live under $GOROOT/src/vendor.
	vdir := filepath.Join(c.ctx.GOROOT, "src", "vendor", filepath.FromSlash(path))
	if st, err := os.Stat(vdir); err == nil && st.IsDir() {
		return vdir, nil
	}
	return "", fmt.Errorf("lint: cannot resolve import %q (only module-local and standard-library imports are supported)", path)
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

// loadStd returns the cache's typechecked stdlib package for path.
func (c *stdCache) loadStd(path string) (*types.Package, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//rexlint:ignore lockcheck the parse fan-out under the lock is a bounded wait: parser goroutines never block and always terminate
	return c.loadStdLocked(path)
}

// loadStdLocked parses and typechecks one stdlib package (and, through the
// stdImporter, its import closure) under the cache lock. Imported
// packages are checked without a types.Info and with IgnoreFuncBodies:
// analyzers never inspect stdlib syntax or effects — call sites into the
// standard library are classified by name against known tables, not by
// analyzing stdlib bodies — so only the exported API shape matters, and
// skipping body checking cuts the dominant cost of a cold whole-module
// run. With bodies ignored go/types can no longer see body-only uses of
// imports and variables, so it raises spurious "imported and not used"
// diagnostics; those are soft errors by definition, and the handler below
// keeps only hard ones.
func (c *stdCache) loadStdLocked(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	dir, err := c.stdDir(path)
	if err != nil {
		return nil, err
	}
	// No analyzer reads stdlib comments, so they are not kept.
	files, err := parseGoDir(c.fset, &c.ctx, dir, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	var hard error
	conf := types.Config{
		Importer:         stdImporter{c},
		Sizes:            types.SizesFor(c.ctx.Compiler, c.ctx.GOARCH),
		IgnoreFuncBodies: true,
		Error: func(err error) {
			if te, ok := err.(types.Error); ok && te.Soft {
				return
			}
			if hard == nil {
				hard = err
			}
		},
	}
	tpkg, _ := conf.Check(path, c.fset, files, nil)
	if hard != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, hard)
	}
	c.pkgs[path] = tpkg
	return tpkg, nil
}

// stdImporter resolves the imports of stdlib packages while the cache lock
// is already held (stdlib only ever imports stdlib).
type stdImporter struct{ c *stdCache }

// Import implements types.Importer for the stdlib closure.
func (i stdImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.c.loadStdLocked(path)
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
// one parse.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	if files, ok := l.parsed[dir]; ok {
		return files, nil
	}
	files, err := parseGoDir(l.fset, &l.ctx, dir, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	l.parsed[dir] = files
	return files, nil
}

// parseGoDir parses the buildable non-test Go files of dir, honoring build
// constraints under the given build context. Files are parsed concurrently:
// token.FileSet is documented as safe for concurrent use, and parsing is
// the dominant cost of a cold stdlib pass once body typechecking is
// skipped. Results keep directory order so positions and declaration order
// stay deterministic run to run. Every caller passes SkipObjectResolution in
// mode: go/types resolves identifiers itself and no analyzer reads the
// parser's ast.Object links.
func parseGoDir(fset *token.FileSet, ctx *build.Context, dir string, mode parser.Mode) ([]*ast.File, error) {
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
		ok, err := ctx.MatchFile(dir, name)
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
			files[i], errs[i] = parser.ParseFile(fset, filepath.Join(dir, name), nil, mode)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
	}
	return files, nil
}

// Packages returns every module-local package this loader has typechecked
// so far — the requested targets plus their module-local import closure —
// sorted by import path. The interprocedural engine builds its program
// over this set so call edges can cross package boundaries.
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
// vendor and hidden directories are skipped.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	paths, err := l.expand(patterns)
	if err != nil {
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
