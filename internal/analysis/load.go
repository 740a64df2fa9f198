package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	// PkgPath is the import path ("specfetch/internal/core").
	PkgPath string
	// Dir is the absolute directory holding the package sources.
	Dir string
	// ModulePath is the module the package belongs to.
	ModulePath string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds soft type-checking errors; analyzers still run, but
	// callers should treat a non-empty list as a failed load.
	TypeErrors []error
}

// Load parses and type-checks the packages selected by patterns, resolved
// relative to dir. Patterns follow the go tool's shape: a directory path,
// or a path ending in "/..." which walks subdirectories (skipping testdata,
// vendor, and hidden directories — name a testdata package explicitly to
// lint it). In-package _test.go files are included, and a directory's
// external foo_test package (if any) is stood up as its own unit with
// import path "<pkg>_test", so the analyzers see every line the test
// binary compiles.
//
// Module-internal imports are type-checked from source on demand; stdlib
// imports are served from the toolchain's compiled export data (via
// `go list -export`), which requires no network access.
//
// Files carrying a //go:build constraint are included only when the
// default environment (GOOS, GOARCH, gc, matching go1.N releases)
// satisfies it — the same file set `go build` would compile.
func Load(dir string, patterns []string) ([]*Package, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(absDir)
	if err != nil {
		return nil, err
	}

	dirs, err := expandPatterns(absDir, patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("no packages match %v", patterns)
	}

	ld := &loader{
		fset:    token.NewFileSet(),
		modRoot: modRoot,
		modPath: modPath,
		units:   map[string]*Package{},
		parsed:  map[string]bool{},
		loading: map[string]bool{},
	}

	// Parse every selected package first so the full set of external
	// imports is known before the single `go list -export` call.
	var selected []*Package
	seen := map[string]bool{}
	for _, d := range dirs {
		path, err := ld.importPathFor(d)
		if err != nil {
			return nil, err
		}
		if seen[path] {
			continue
		}
		seen[path] = true
		pkg, xtest, err := ld.parseUnits(d, path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			selected = append(selected, pkg)
		}
		if xtest != nil {
			selected = append(selected, xtest)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no Go packages match %v", patterns)
	}
	if err := ld.resolveExports(selected); err != nil {
		return nil, err
	}
	for _, pkg := range selected {
		if err := ld.check(pkg); err != nil {
			return nil, err
		}
	}
	sort.Slice(selected, func(i, j int) bool { return selected[i].PkgPath < selected[j].PkgPath })
	return selected, nil
}

// loader owns the shared state of one Load call.
type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	// units memoizes parsed/checked module packages by import path;
	// external test packages are filed under "<pkg>_test".
	units map[string]*Package
	// parsed marks directories whose files have been split into units, so
	// a package-less directory is not re-read on every lookup.
	parsed  map[string]bool
	loading map[string]bool // import-cycle detection
	// exports maps import path -> compiled export data file for packages
	// outside the module (stdlib).
	exports map[string]string
	gcImp   types.Importer
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// expandPatterns resolves go-style package patterns to directories.
func expandPatterns(base string, patterns []string) ([]string, error) {
	var dirs []string
	for _, pat := range patterns {
		rec := false
		if p, ok := strings.CutSuffix(pat, "/..."); ok {
			rec, pat = true, p
		}
		if pat == "" || pat == "." {
			pat = base
		} else if !filepath.IsAbs(pat) {
			pat = filepath.Join(base, pat)
		}
		if !rec {
			dirs = append(dirs, pat)
			continue
		}
		err := filepath.WalkDir(pat, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != pat && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs = append(dirs, p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// importPathFor maps a directory to its module import path.
func (ld *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(ld.modRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, ld.modPath)
	}
	if rel == "." {
		return ld.modPath, nil
	}
	return ld.modPath + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps a module import path back to its directory.
func (ld *loader) dirFor(path string) string {
	if path == ld.modPath {
		return ld.modRoot
	}
	return filepath.Join(ld.modRoot, filepath.FromSlash(strings.TrimPrefix(path, ld.modPath+"/")))
}

// parseDir parses the importable package in dir (keeping in-package test
// files). Returns nil when the directory has no buildable Go files. Used
// by the importer path, where a directory's external test package can
// never be a dependency.
func (ld *loader) parseDir(dir, path string) (*Package, error) {
	pkg, _, err := ld.parseUnits(dir, path)
	return pkg, err
}

// parseUnits parses every Go file in dir and splits the result into the
// importable package and the external (_test-suffixed) test package; either
// may be nil. The external unit gets import path "<path>_test" — it is not
// importable, so the synthetic path cannot collide with a real dependency.
func (ld *loader) parseUnits(dir, path string) (pkg, xtest *Package, err error) {
	xpath := path + "_test"
	if ld.parsed[path] {
		return ld.units[path], ld.units[xpath], nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files, xfiles []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		if !constraintSatisfied(f) {
			continue
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			xfiles = append(xfiles, f)
		} else {
			files = append(files, f)
		}
	}
	ld.parsed[path] = true
	if len(files) > 0 {
		pkg = &Package{
			PkgPath:    path,
			Dir:        dir,
			ModulePath: ld.modPath,
			Fset:       ld.fset,
			Files:      files,
		}
		ld.units[path] = pkg
	}
	if len(xfiles) > 0 {
		xtest = &Package{
			PkgPath:    xpath,
			Dir:        dir,
			ModulePath: ld.modPath,
			Fset:       ld.fset,
			Files:      xfiles,
		}
		ld.units[xpath] = xtest
	}
	return pkg, xtest, nil
}

// externalImports walks every parsed unit (transitively pre-parsing
// module-internal imports) and collects the out-of-module import set.
func (ld *loader) externalImports(roots []*Package) ([]string, error) {
	ext := map[string]bool{}
	var queue []*Package
	queue = append(queue, roots...)
	visited := map[string]bool{}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if visited[pkg.PkgPath] {
			continue
		}
		visited[pkg.PkgPath] = true
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if ld.isInternal(path) {
					dep, err := ld.parseDir(ld.dirFor(path), path)
					if err != nil {
						return nil, fmt.Errorf("import %q: %w", path, err)
					}
					if dep == nil {
						return nil, fmt.Errorf("import %q: no Go files in %s", path, ld.dirFor(path))
					}
					queue = append(queue, dep)
				} else if path != "unsafe" && path != "C" {
					ext[path] = true
				}
			}
		}
	}
	paths := make([]string, 0, len(ext))
	for p := range ext {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths, nil
}

func (ld *loader) isInternal(path string) bool {
	return path == ld.modPath || strings.HasPrefix(path, ld.modPath+"/")
}

// resolveExports locates compiled export data for every external import
// (plus transitive dependencies) via one `go list -export` invocation, and
// builds the gc importer over it.
func (ld *loader) resolveExports(roots []*Package) error {
	paths, err := ld.externalImports(roots)
	if err != nil {
		return err
	}
	ld.exports = map[string]string{}
	if len(paths) > 0 {
		args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, paths...)
		cmd := exec.Command("go", args...)
		cmd.Dir = ld.modRoot
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("go list -export: %v\n%s", err, errb.String())
		}
		dec := json.NewDecoder(&out)
		for {
			var rec struct{ ImportPath, Export string }
			if err := dec.Decode(&rec); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("go list -export output: %v", err)
			}
			if rec.Export != "" {
				ld.exports[rec.ImportPath] = rec.Export
			}
		}
	}
	ld.gcImp = importer.ForCompiler(ld.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := ld.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return nil
}

// Import implements types.Importer: module-internal packages are checked
// from source (memoized), everything else comes from export data.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if !ld.isInternal(path) {
		return ld.gcImp.Import(path)
	}
	pkg, err := ld.parseDir(ld.dirFor(path), path)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("import %q: no Go files", path)
	}
	if err := ld.check(pkg); err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// check type-checks a parsed unit (idempotent).
func (ld *loader) check(pkg *Package) error {
	if pkg.Types != nil {
		return nil
	}
	if ld.loading[pkg.PkgPath] {
		return fmt.Errorf("import cycle through %s", pkg.PkgPath)
	}
	ld.loading[pkg.PkgPath] = true
	defer delete(ld.loading, pkg.PkgPath)

	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: ld,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	// Soft errors: Check returns a usable (if partial) package either way;
	// callers decide whether TypeErrors are fatal.
	tp, _ := conf.Check(pkg.PkgPath, ld.fset, pkg.Files, pkg.Info)
	pkg.Types = tp
	return nil
}
