package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
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

// Package is one parsed and type-checked package.
type Package struct {
	// PkgPath is the import path ("specfetch/internal/core"); an external
	// test package is "<pkg>_test".
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
// relative to dir. The go tool decides what a package is: one
// `go list -e -json -deps -test -export` call run in dir expands the
// patterns (so "./..." skips testdata, vendor and nested modules; name a
// testdata package explicitly to lint it), filters every file list exactly
// as `go build` does (//go:build lines and _GOOS/_GOARCH file names), and
// maps each package's imports to the variant it is compiled against.
//
// A selected package is checked together with its in-package _test.go
// files, and its external foo_test package (if any) is stood up as its own
// unit with import path "<pkg>_test", importing that test variant, so the
// analyzers see every line the test binary compiles. A dependency is
// checked from its non-test files alone, as `go build` compiles it.
//
// Module packages are type-checked from source; stdlib imports are served
// from the toolchain's compiled export data, which requires no network
// access.
func Load(dir string, patterns []string) ([]*Package, error) {
	list, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:    token.NewFileSet(),
		listed:  map[string]*listedPackage{},
		units:   map[string]*Package{},
		loading: map[string]bool{},
	}
	for _, lp := range list {
		ld.listed[lp.ImportPath] = lp
	}
	ld.gcImp = importer.ForCompiler(ld.fset, "gc", func(path string) (io.ReadCloser, error) {
		lp := ld.listed[path]
		if lp == nil || lp.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(lp.Export)
	})

	var selected []*Package
	for _, lp := range list {
		// Check every matched package and the packages its tests add:
		// "p [p.test]" (GoFiles plus the in-package _test.go files), which
		// replaces a p that has in-package tests, and "p_test [p.test]".
		// Dependencies and the test main "p.test" match no pattern.
		test := lp.ForTest != "" && !lp.DepOnly
		if !test && (len(lp.Match) == 0 || len(lp.TestGoFiles) > 0) {
			continue
		}
		pkg, err := ld.check(lp.ImportPath)
		if err != nil {
			return nil, err
		}
		selected = append(selected, pkg)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no Go packages match %v", patterns)
	}
	sort.Slice(selected, func(i, j int) bool { return selected[i].PkgPath < selected[j].PkgPath })
	return selected, nil
}

// listedPackage is the part of one `go list -json` record the loader reads.
type listedPackage struct {
	// ImportPath identifies the record: "p", or "p [q.test]" for p as
	// compiled into q's test binary.
	ImportPath string
	Dir        string
	Module     *struct{ Path string }
	Standard   bool
	// ForTest names the package whose tests the record is compiled for;
	// DepOnly marks a record listed only as a dependency.
	ForTest string
	DepOnly bool
	// Match lists the patterns the package matched.
	Match []string
	// GoFiles is what `go build` compiles; a test variant's includes its
	// in-package _test.go files, an external test package's its own files.
	GoFiles     []string
	TestGoFiles []string
	// ImportMap maps an import path written in the source to the record
	// it resolves to, where the two differ.
	ImportMap map[string]string
	Export    string
	Error     *struct{ Err string }
}

// goList runs the loader's one go list call and decodes its records, every
// dependency before its importers.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,Module,Standard,ForTest,DepOnly,Match,GoFiles,TestGoFiles,ImportMap,Export,Error",
		"--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errb.String())
	}
	var list []*listedPackage
	for dec := json.NewDecoder(&out); ; {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			return list, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		list = append(list, lp)
	}
}

// loader owns the shared state of one Load call.
type loader struct {
	fset   *token.FileSet
	listed map[string]*listedPackage // by go list ImportPath
	// units memoizes checked module packages by go list ImportPath.
	units   map[string]*Package
	loading map[string]bool // import-cycle detection
	gcImp   types.Importer
}

// check parses and type-checks the listed package id (memoized). Its
// imports resolve through its own ImportMap, so a package compiled for
// p's tests sees p's test variant.
func (ld *loader) check(id string) (*Package, error) {
	if pkg := ld.units[id]; pkg != nil {
		return pkg, nil
	}
	lp := ld.listed[id]
	switch {
	case lp == nil:
		return nil, fmt.Errorf("package %q not listed by go list", id)
	case len(lp.GoFiles) == 0 && lp.Error != nil:
		// Nothing to check, so go list's reason is the load error (no Go
		// files, directory not found, package not found). Where there are
		// files, the type checker reports what the compiler would.
		return nil, errors.New(strings.TrimSpace(lp.Error.Err))
	case ld.loading[id]:
		return nil, fmt.Errorf("import cycle through %s", id)
	}
	ld.loading[id] = true
	defer delete(ld.loading, id)

	path, _, _ := strings.Cut(id, " ")
	pkg := &Package{
		PkgPath: path,
		Dir:     lp.Dir,
		Fset:    ld.fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	if lp.Module != nil {
		pkg.ModulePath = lp.Module.Path
	}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := lp.ImportMap[path]; ok {
				path = mapped
			}
			if dep := ld.listed[path]; dep != nil && dep.Standard {
				return ld.gcImp.Import(path)
			}
			dep, err := ld.check(path)
			if err != nil {
				return nil, err
			}
			return dep.Types, nil
		}),
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	// Soft errors: Check returns a usable (if partial) package either way;
	// callers decide whether TypeErrors are fatal.
	pkg.Types, _ = conf.Check(path, ld.fset, pkg.Files, pkg.Info)
	ld.units[id] = pkg
	return pkg, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
