package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the module (or a test fixture):
// its syntax trees plus the go/types information the analyzers consume.
// Test files (_test.go) are excluded — repolint audits production code,
// and the floateq policy explicitly permits exact comparison in tests.
type Package struct {
	// ImportPath is the package's import path ("repro/internal/mpi"), or
	// a synthetic "fixture/..." path for testdata packages.
	ImportPath string
	// Dir is the package's source directory.
	Dir string
	// Fset positions all files of all packages loaded together.
	Fset *token.FileSet
	// Files are the parsed, constraint-selected non-test sources.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries expression types, object uses/defs and selections.
	Info *types.Info
	// TypeErrors collects type-checking diagnostics; analysis proceeds
	// with whatever information was recoverable.
	TypeErrors []error

	root string // load root for position relativization
}

// Loader type-checks the module from source. Imports inside the module
// are resolved by recursively loading their directories; standard-library
// imports go through the go/importer source importer, so no compiled
// export data or external tooling is needed.
type Loader struct {
	Fset *token.FileSet

	root    string // module root (directory containing go.mod)
	module  string // module path from go.mod
	std     types.Importer
	ctx     build.Context
	pkgs    map[string]*Package // memoized module packages by import path
	loading map[string]bool     // cycle guard
	warn    []string
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// NewLoader prepares a loader for the module rooted at root (which must
// contain go.mod).
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ctx := build.Default
	// Cgo-variant files would need the cgo preprocessor; select the pure
	// Go file set instead, which is what this module ships anyway.
	ctx.CgoEnabled = false
	return &Loader{
		Fset:    fset,
		root:    root,
		module:  module,
		std:     importer.ForCompiler(fset, "source", nil),
		ctx:     ctx,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// Warnings returns non-fatal diagnostics accumulated while loading.
func (l *Loader) Warnings() []string { return l.warn }

// LoadModule walks the module tree and loads every buildable package,
// skipping testdata, vendor and hidden directories and, as `go build
// ./...` does, any nested directory with its own go.mod: that tree is a
// different module.
func (l *Loader) LoadModule() ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != l.root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		ip := l.module
		if rel != "." {
			ip = l.module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(path, ip)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil // directory without Go files
			}
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir under the
// given import path, memoized per path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.Fset,
		root:       l.root,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	// Parse the package's files concurrently: token.FileSet and
	// parser.ParseFile are safe for concurrent use, and parsing is the
	// bulk of per-package load time once the stdlib is warm. Order is
	// preserved by index so positions and file/ignore pairing stay
	// deterministic. Type checking below stays serial — the recursive
	// importer mutates loader state.
	pkg.Files = make([]*ast.File, len(bp.GoFiles))
	parseErrs := make([]error, len(bp.GoFiles))
	var wg sync.WaitGroup
	for i, name := range bp.GoFiles {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
			if err != nil {
				parseErrs[i] = fmt.Errorf("lint: parse %s: %w", path, err)
				return
			}
			pkg.Files[i] = f
		}(i, filepath.Join(dir, name))
	}
	wg.Wait()
	for _, err := range parseErrs {
		if err != nil {
			return nil, err
		}
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check never fully fails with a non-nil Error hook: partial type
	// information is enough for the analyzers, and diagnostics are kept.
	tpkg, err := conf.Check(importPath, l.Fset, pkg.Files, pkg.Info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	if len(pkg.TypeErrors) > 0 {
		l.warn = append(l.warn, fmt.Sprintf("%s: %d type-check diagnostics (first: %v)",
			importPath, len(pkg.TypeErrors), pkg.TypeErrors[0]))
	}
	pkg.Types = tpkg
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal paths load from the
// module tree, everything else goes to the standard-library source
// importer. Unresolvable imports degrade to empty placeholder packages so
// one exotic dependency cannot abort a whole-module lint run.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		dir := filepath.Join(l.root, filepath.FromSlash(rel))
		p, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		l.warn = append(l.warn, fmt.Sprintf("import %q: %v (continuing with placeholder)", path, err))
		ph := types.NewPackage(path, filepath.Base(path))
		ph.MarkComplete()
		return ph, nil
	}
	return pkg, nil
}
