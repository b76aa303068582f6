package analysis

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
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	dep func(path string) *types.Package
}

// Loader parses and type-checks packages with no toolchain dependency
// beyond the standard library: module packages resolve by path mapping
// under the module root, everything else resolves from GOROOT source.
// The module has no external dependencies, which is what makes this
// complete; a third-party import would fail loudly here, not silently.
//
// Stdlib dependencies are checked with IgnoreFuncBodies (declarations
// only): analysis never inspects stdlib bodies, and skipping them makes
// loading the whole module a ~2s operation instead of ~20s.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset  *token.FileSet
	ctx   build.Context
	types map[string]*types.Package
	pkgs  map[string]*Package // module + fixture packages, with syntax and Info
}

// NewLoader creates a loader rooted at the directory holding go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", moduleRoot)
	}
	ctx := build.Default
	// Pure-Go file selection: cgo variants would need the cgo tool; every
	// package this module touches has a non-cgo build.
	ctx.CgoEnabled = false
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		fset:       token.NewFileSet(),
		ctx:        ctx,
		types:      map[string]*types.Package{"unsafe": types.Unsafe},
		pkgs:       map[string]*Package{},
	}, nil
}

// FindModuleRoot walks up from dir to the enclosing go.mod.
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
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// LoadModule loads every package of the module (test files excluded —
// tests may legitimately use wall clocks and local randomness), in
// deterministic path order.
func (l *Loader) LoadModule() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		// The root's dev-certs holds throwaway TLS material (make
		// dev-certs); cmd/dev-certs, which writes it, is source.
		name := d.Name()
		if p != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || p == filepath.Join(l.ModuleRoot, "dev-certs")) {
			return filepath.SkipDir
		}
		gofiles, _ := filepath.Glob(filepath.Join(p, "*.go"))
		nontest := false
		for _, f := range gofiles {
			if !strings.HasSuffix(f, "_test.go") {
				nontest = true
				break
			}
		}
		if !nontest {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleRoot, p)
		if err != nil {
			return err
		}
		ip := l.ModulePath
		if rel != "." {
			ip = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*Package
	for _, ip := range paths {
		pkg, err := l.Load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// Load type-checks one module package by import path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if _, err := l.importPath(path); err != nil {
		return nil, err
	}
	p, ok := l.pkgs[path]
	if !ok {
		return nil, fmt.Errorf("analysis: %s loaded without syntax (not a module package?)", path)
	}
	return p, nil
}

// LoadDir type-checks a single directory under a synthetic import path —
// the fixture entry point used by the antest harness. Fixture imports
// resolve against the module and the standard library, not each other.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if _, err := l.check(importPath, dir, true); err != nil {
		return nil, err
	}
	return l.pkgs[importPath], nil
}

// importPath resolves an import during type checking.
func (l *Loader) importPath(path string) (*types.Package, error) {
	if p, ok := l.types[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return p, nil
	}
	l.types[path] = nil // cycle guard
	module := path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
	var dir string
	if module {
		dir = filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")))
	} else {
		bp, err := l.ctx.Import(path, l.ModuleRoot, build.FindOnly)
		if err != nil {
			return nil, fmt.Errorf("analysis: resolve %s: %w", path, err)
		}
		dir = bp.Dir
	}
	return l.check(path, dir, module)
}

// check parses and type-checks one directory. Module (and fixture)
// packages keep full syntax, type info and bodies; dependency packages
// are checked declarations-only and their type errors are ignored (GOROOT
// code is trusted; body-level errors cannot occur with bodies skipped).
func (l *Loader) check(path, dir string, full bool) (*types.Package, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	names := append([]string{}, bp.GoFiles...)
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	var typeErrs []error
	cfg := &types.Config{
		Importer:         importerFunc(l.importPath),
		IgnoreFuncBodies: !full,
		Error: func(err error) {
			if full {
				typeErrs = append(typeErrs, err)
			}
		},
	}
	var info *types.Info
	if full {
		info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
	}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if full && len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s: %v", path, typeErrs[0])
	}
	if err != nil && full {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	l.types[path] = tpkg
	if full {
		l.pkgs[path] = &Package{
			Path:  path,
			Dir:   dir,
			Fset:  l.fset,
			Files: files,
			Types: tpkg,
			Info:  info,
			dep: func(p string) *types.Package {
				tp, err := l.importPath(p)
				if err != nil {
					return nil
				}
				return tp
			},
		}
	}
	return tpkg, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
