package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
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
// one Loader per fixture) pays for a single GOROOT pass. That pass is most
// of a cold run's load: the closure net/http pulls in is about 200
// packages, several times the module. Analyzers only inspect the syntax of
// target packages, so stdlib packages are read for their package-scope
// API alone — shaped by shapeSource, parsed, and checked without a
// types.Info or function bodies — while module packages get a full parse
// and a full types.Info.
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
	c := newStdCache(sorted)
	stdCaches.byKey[key] = c
	return c
}

// newStdCache returns an empty stdlib cache for the given build tags.
func newStdCache(tags []string) *stdCache {
	ctx := build.Default
	ctx.CgoEnabled = false
	ctx.BuildTags = append([]string(nil), tags...)
	return &stdCache{
		fset: token.NewFileSet(),
		ctx:  ctx,
		pkgs: make(map[string]*types.Package),
	}
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
// stdImporter, its import closure) under the cache lock. Analyzers never
// inspect stdlib syntax or effects — call sites into the standard library
// are classified by name against known tables, not by analyzing stdlib
// bodies — so only the package-scope API shape matters. Each file is
// parsed from shapeSource's rewrite, which empties function bodies and
// composite literals before the parser sees them; the parser then no
// longer builds body ASTs that are thrown away, and go/types no longer
// walks unicode's tables. TestStdShapeMatchesFullParse holds the result
// to a check of the full files.
func (c *stdCache) loadStdLocked(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	dir, err := c.stdDir(path)
	if err != nil {
		return nil, err
	}
	// No analyzer reads stdlib comments, so they are not kept.
	files, err := parseGoDir(c.fset, &c.ctx, dir, parser.SkipObjectResolution, shapeSource)
	if err != nil {
		return nil, err
	}
	tpkg, err := c.check(path, dir, files, stdImporter{c})
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = tpkg
	return tpkg, nil
}

// check typechecks the parsed files of one stdlib package with
// IgnoreFuncBodies and no types.Info. Soft errors — go/types' class for
// diagnostics such as unused names, which a check without bodies cannot
// judge — are dropped; the first hard one fails the package.
func (c *stdCache) check(path, dir string, files []*ast.File, imp types.Importer) (*types.Package, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	var hard error
	conf := types.Config{
		Importer:         imp,
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
	files, err := parseGoDir(l.fset, &l.ctx, dir, parser.ParseComments|parser.SkipObjectResolution, nil)
	if err != nil {
		return nil, err
	}
	l.parsed[dir] = files
	return files, nil
}

// parseGoDir parses the buildable non-test Go files of dir, honoring build
// constraints under the given build context. A non-nil shape rewrites each
// file's source before it is parsed (the stdlib passes shapeSource; module
// packages pass nil and are parsed as written). Files are read, shaped and
// parsed concurrently: token.FileSet is documented as safe for concurrent
// use. Results keep directory order so positions and declaration order
// stay deterministic run to run. Every caller passes SkipObjectResolution in
// mode: go/types resolves identifiers itself and no analyzer reads the
// parser's ast.Object links.
func parseGoDir(fset *token.FileSet, ctx *build.Context, dir string, mode parser.Mode, shape func([]byte) []byte) ([]*ast.File, error) {
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
			path := filepath.Join(dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				errs[i] = err
				return
			}
			if shape != nil {
				src = shape(src)
			}
			files[i], errs[i] = parser.ParseFile(fset, path, src, mode)
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

// shapeSource rewrites the source of one standard-library file, in place,
// into what go/types reads of it when it checks with IgnoreFuncBodies and
// no types.Info: the package-scope declarations. Every brace that opens a
// function body or a composite literal, wherever it stands, is emptied:
// its contents are dropped but for their newlines, so every later token
// keeps its line. Two kinds of brace hold what the declared API depends
// on and are not emptied: a struct or interface type body is kept, and
// so is the element list of a [...]T literal, whose length is its element
// count — an unkeyed one becomes [N]T{} with its N counted, a keyed one
// stays whole. Comments, interpreted and raw strings and rune literals
// are skipped whole, so no brace inside one counts.
//
// Emptying changes no declared type: a literal's type is written before
// its brace, and a function's signature before its body. The output is
// never longer than the input — N's digits take no more room than the
// "..." and the N elements they replace — so the pass writes over src and
// returns the prefix in use.
func shapeSource(src []byte) []byte {
	var (
		w, kept  int  // src[:w] is the output; src[kept:i] is still to be appended
		depth    int  // open parens, brackets and type bodies; places a [...]T's brace
		typeKw   bool // the last token was struct or interface
		ell      int  // tokens of a "[...]" seen so far: 1 after "[", 2 after "..."
		dotsAt   int  // index of the last "..." token
		ellAt    = -1 // index of the "..." of a [...]T whose literal brace is still to come
		ellDepth int  // depth of that [...]T
		num      [20]byte
	)
	for i := 0; i < len(src); {
		if j := skipNoise(src, i); j > i {
			i = j
			continue
		}
		c := src[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			i++
			continue
		}
		afterType, e := typeKw, ell
		typeKw, ell = false, 0
		if isWordByte(c) {
			j := i + 1
			for j < len(src) && isWordByte(src[j]) {
				j++
			}
			word := string(src[i:j])
			typeKw = word == "struct" || word == "interface"
			i = j
			continue
		}
		switch c {
		case '.':
			if i+2 < len(src) && src[i+1] == '.' && src[i+2] == '.' {
				if e == 1 {
					ell, dotsAt = 2, i
				}
				i += 3
				continue
			}
		case '(':
			depth++
		case '[':
			depth++
			ell = 1
		case ')', '}':
			if depth > 0 {
				depth--
			}
		case ']':
			if depth > 0 {
				depth--
			}
			if e == 2 && ellAt < 0 {
				ellAt, ellDepth = dotsAt, depth
			}
		case '{':
			if afterType {
				depth++
				break
			}
			end := closeBrace(src, i)
			switch {
			case ellAt >= 0 && depth > ellDepth:
				// A literal inside the element type of a pending [...]T
				// (an array length, say): kept whole.
			case ellAt >= 0 && depth == ellDepth:
				// Nothing between the "..." and this brace was emptied, so
				// src[kept:ellAt] still holds the text before the dots.
				if elems, keyed := literalElems(src, i, end); !keyed {
					newlines := bytes.Count(src[i:end], []byte{'\n'})
					w += copy(src[w:], src[kept:ellAt])
					n := strconv.AppendInt(num[:0], int64(elems), 10)
					typ := src[ellAt+3 : i+1] // "]T{"
					copy(src[w+len(n):], typ)
					w += copy(src[w:], n) + len(typ)
					w = putNewlines(src, w, newlines)
					kept = end
				}
				ellAt = -1
			default:
				ellAt = -1
				newlines := bytes.Count(src[i:end], []byte{'\n'})
				w += copy(src[w:], src[kept:i+1])
				w = putNewlines(src, w, newlines)
				kept = end
			}
			i = end + 1
			continue
		}
		i++
	}
	w += copy(src[w:], src[kept:])
	return src[:w]
}

// putNewlines writes n newlines into src at w and returns the new end.
func putNewlines(src []byte, w, n int) int {
	for ; n > 0; n-- {
		src[w] = '\n'
		w++
	}
	return w
}

// braceStop marks the bytes closeBrace must look at: braces, and the
// first bytes of comments, strings and runes.
var braceStop = [256]bool{'{': true, '}': true, '/': true, '"': true, '\'': true, '`': true}

// closeBrace returns the index of the brace that closes the one at
// src[open], or len(src) when none does.
func closeBrace(src []byte, open int) int {
	depth := 0
	for i := open; i < len(src); i++ {
		if !braceStop[src[i]] {
			continue
		}
		switch src[i] {
		case '{':
			depth++
		case '}':
			if depth--; depth == 0 {
				return i
			}
		default:
			if j := skipNoise(src, i); j > i {
				i = j - 1
			}
		}
	}
	return len(src)
}

// literalElems reads src[open:end], a composite literal from its opening
// to its closing brace, and returns its element count and whether any
// element is keyed.
func literalElems(src []byte, open, end int) (elems int, keyed bool) {
	depth := 0
	elem := false // an element has begun since the last comma
	for i := open; i < end; {
		if j := skipNoise(src, i); j > i {
			if src[i] != '/' {
				elem = true
			}
			i = j
			continue
		}
		switch src[i] {
		case ' ', '\t', '\n', '\r':
		case '{', '(', '[':
			depth++
			elem = elem || depth > 1
		case '}', ')', ']':
			depth--
		case ',':
			if depth == 1 {
				elems++
				elem = false
			}
		case ':':
			keyed = keyed || depth == 1
		default:
			elem = elem || depth == 1
		}
		i++
	}
	if elem {
		elems++
	}
	return elems, keyed
}

// skipNoise returns the end of the comment, string or rune literal that
// starts at src[i], or i when none does. A line comment ends before its
// newline, and an interpreted string or rune left open at a newline ends
// there: the parser rejects such a file, and the newline stays a newline.
func skipNoise(src []byte, i int) int {
	switch q := src[i]; q {
	case '/':
		if i+1 < len(src) {
			switch src[i+1] {
			case '/':
				if j := bytes.IndexByte(src[i+2:], '\n'); j >= 0 {
					return i + 2 + j
				}
				return len(src)
			case '*':
				if j := bytes.Index(src[i+2:], []byte("*/")); j >= 0 {
					return i + 4 + j
				}
				return len(src)
			}
		}
	case '`':
		if j := bytes.IndexByte(src[i+1:], '`'); j >= 0 {
			return i + 2 + j
		}
		return len(src)
	case '"', '\'':
		for j := i + 1; j < len(src); j++ {
			switch src[j] {
			case '\\':
				if j+1 < len(src) && src[j+1] != '\n' {
					j++
				}
			case q:
				return j + 1
			case '\n':
				return j
			}
		}
		return len(src)
	}
	return i
}

// isWordByte reports whether b can be part of an identifier, keyword or
// number. Bytes of a multi-byte UTF-8 rune count: outside comments and
// literals, Go source has them only in identifiers.
func isWordByte(b byte) bool {
	return b == '_' || b >= 0x80 || '0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
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
