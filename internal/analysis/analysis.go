// Package analysis is specfetch's in-tree static-analysis framework: a
// small loader that parses and type-checks the module with nothing but the
// standard library (go/parser + go/types; stdlib imports are resolved from
// the toolchain's export data, so it works offline), plus the simulator's
// project-specific analyzers.
//
// The paper's conclusions rest on cycle-exact accounting: the six-component
// ISPI breakdown only means something if every stall cycle is attributed
// exactly once and every run is bit-reproducible. Those are exactly the
// properties that rot silently under maintenance, so they are machine
// checked here rather than left to review:
//
//   - determinism: no wall-clock reads, no process-global RNG, and no
//     output or result stores driven by map-iteration order inside the
//     simulator packages.
//   - probeguard: every obs.Probe/obs.Sampler hook call in the engine is
//     dominated by a nil check, preserving the zero-overhead guarantee.
//   - enumswitch: switches over module enums (Policy, Component, event
//     kinds, ...) are exhaustive or carry an explicit default, so adding a
//     seventh stall component cannot silently drop cycles.
//   - errcheck: no discarded error results in the trace/program codecs and
//     the command-line I/O paths.
//   - sweeplint: the distributed-sweep layer (internal/distsweep,
//     cmd/sweepworker) reports through registry counters or an injected
//     writer, never via ad-hoc fmt.Fprintf(os.Stderr, ...) or the global
//     log package.
//   - unitcheck: cycle counts (metrics.Cycles) and issue-slot counts
//     (metrics.Slots) never mix or revert to raw integers without an
//     explicit conversion — slots = cycles × width is the identity every
//     ISPI table rests on.
//
// Run it with `go run ./cmd/simlint ./...`; the runtime counterpart of
// these checks is obs.AuditProbe.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic with the file path relative to base (or
// absolute when base is empty or unrelated).
func (d Diagnostic) String(base string) string {
	file := d.Pos.Filename
	if base != "" {
		if rel, err := filepath.Rel(base, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d: [%s] %s", file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	// AppliesTo filters packages by import path; nil means every package.
	// Fixture packages (any path containing "testdata") always apply, so
	// each analyzer exercises its own fixture regardless of scope.
	AppliesTo func(pkgPath string) bool
	Run       func(*Pass)
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, ProbeGuard, EnumSwitch, ErrCheck, SweepLint, UnitCheck}
}

// ByName resolves a comma-separated analyzer list ("determinism,errcheck").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	return out, nil
}

// applies reports whether a runs on the package at pkgPath. An external
// foo_test package (loaded under the synthetic path "<pkg>_test") is scoped
// with its base package, so path-scoped analyzers cover every test file.
func (a *Analyzer) applies(pkgPath string) bool {
	if strings.Contains(pkgPath, "testdata") {
		return true
	}
	pkgPath = strings.TrimSuffix(pkgPath, "_test")
	return a.AppliesTo == nil || a.AppliesTo(pkgPath)
}

// inPaths builds an AppliesTo that matches packages whose import path
// contains one of the given module-relative fragments as path segments.
func inPaths(fragments ...string) func(string) bool {
	return func(pkgPath string) bool {
		p := "/" + pkgPath + "/"
		for _, f := range fragments {
			if strings.Contains(p, "/"+f+"/") {
				return true
			}
		}
		return false
	}
}

// Run applies the given analyzers to the given packages and returns the
// findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.applies(pkg.PkgPath) {
				continue
			}
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
		}
	}
	// Order by position, then analyzer name.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// inspectWithStack walks every file, calling visit with the full ancestor
// stack (stack[len-1] is the current node). Returning false skips the
// node's children.
func inspectWithStack(files []*ast.File, visit func(stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if !visit(stack) {
				// Children are skipped; pop immediately since the nil
				// callback for this node will not come.
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		})
	}
}

// rootIdent peels selectors, indexes, stars, and parens off an lvalue and
// returns its base identifier (nil when the base is not an identifier,
// e.g. a function call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// pkgNameOf resolves an identifier to the import path of the package it
// names, or "" when it is not a package qualifier.
func pkgNameOf(info *types.Info, id *ast.Ident) string {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// calleePkgFunc splits a call of the form pkg.Func into its package import
// path and function name ("", "" when the call is not package-qualified).
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, fn string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	return pkgNameOf(info, id), sel.Sel.Name
}
