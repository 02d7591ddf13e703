// Package loading and type-checking for the determinism linters.
//
// sfs-lint cannot assume network access (the module has no external
// dependencies by design), so instead of golang.org/x/tools/go/packages it
// carries a small loader built on the standard library: files are parsed
// with go/parser, packages are type-checked with go/types, module-local
// imports resolve by path inside the module tree, and standard-library
// imports resolve through go/importer's source importer (which reads
// GOROOT/src and needs no compiled export data).
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

// fset is the process-wide file set. Sharing one between the module loader
// and the stdlib source importer keeps every position resolvable, and lets
// the expensive from-source stdlib type-checking be cached across Run calls
// (the fixture harness loads many small modules in one test binary).
var (
	fset = token.NewFileSet()

	stdOnce     sync.Once
	stdImporter types.Importer
	stdMu       sync.Mutex
)

func stdlibImporter() types.Importer {
	stdOnce.Do(func() {
		stdImporter = importer.ForCompiler(fset, "source", nil)
	})
	return stdImporter
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path; Dir the directory holding its files.
	Path string
	Dir  string
	// Files are the parsed non-test Go files, in file-name order.
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info

	prog *Program
}

// Program loads and caches the packages of one module. It implements
// types.Importer for module-local and standard-library paths.
type Program struct {
	// ModulePath and ModuleDir identify the module being linted.
	ModulePath string
	ModuleDir  string

	pkgs    map[string]*Package // by import path; nil entry = in progress
	loading []string            // import stack, for cycle reporting
}

// NewProgram prepares a loader rooted at the module containing dir (the
// nearest parent with a go.mod).
func NewProgram(dir string) (*Program, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Program{
		ModulePath: modPath,
		ModuleDir:  root,
		pkgs:       map[string]*Package{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", file)
}

// local reports whether path names a package inside the module.
func (pr *Program) local(path string) bool {
	return path == pr.ModulePath || strings.HasPrefix(path, pr.ModulePath+"/")
}

// dirFor maps a module-local import path to its directory.
func (pr *Program) dirFor(path string) string {
	if path == pr.ModulePath {
		return pr.ModuleDir
	}
	rel := strings.TrimPrefix(path, pr.ModulePath+"/")
	return filepath.Join(pr.ModuleDir, filepath.FromSlash(rel))
}

// pathFor maps a directory inside the module to its import path.
func (pr *Program) pathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(pr.ModuleDir, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return pr.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, pr.ModuleDir)
	}
	return pr.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer.
func (pr *Program) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pr.local(path) {
		pkg, err := pr.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdlibImporter().Import(path)
}

// Load parses and type-checks the module-local package at the given import
// path (cached). Test files are excluded: the determinism contract governs
// shipped code, while test-order effects are exercised dynamically by
// `go test -shuffle=on` in CI.
func (pr *Program) Load(path string) (*Package, error) {
	if pkg, ok := pr.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle: %s", strings.Join(append(pr.loading, path), " -> "))
		}
		return pkg, nil
	}
	pr.pkgs[path] = nil // mark in progress
	pr.loading = append(pr.loading, path)
	pkg, err := pr.loadUncached(path)
	pr.loading = pr.loading[:len(pr.loading)-1]
	if err != nil {
		delete(pr.pkgs, path)
		return nil, err
	}
	pr.pkgs[path] = pkg
	return pkg, nil
}

func (pr *Program) loadUncached(path string) (*Package, error) {
	dir := pr.dirFor(path)
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: pr}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Files: files,
		Types: tpkg,
		Info:  info,
		prog:  pr,
	}, nil
}

// goFiles lists the buildable non-test Go files of dir, sorted.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		// Honor build constraints (//go:build and GOOS/GOARCH suffixes).
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// ExpandPatterns resolves package patterns ("./...", "./internal/sim", an
// import path, or a directory) into the sorted import paths of matching
// packages. Directories named testdata, and hidden directories, are skipped,
// matching the go tool.
func (pr *Program) ExpandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		var dir string
		switch {
		case pat == ".", strings.HasPrefix(pat, "./"), strings.HasPrefix(pat, "/"), strings.HasPrefix(pat, ".."):
			dir = pat
		case pr.local(pat):
			dir = pr.dirFor(pat)
		default:
			dir = pat
		}
		if !recursive {
			path, err := pr.pathFor(dir)
			if err != nil {
				return nil, err
			}
			add(path)
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			names, err := goFiles(p)
			if err != nil {
				return err
			}
			if len(names) == 0 {
				return nil
			}
			path, err := pr.pathFor(p)
			if err != nil {
				return err
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}
