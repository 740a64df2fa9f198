package analysis

import (
	"go/ast"
	"go/build/constraint"
	"runtime"
	"strings"
)

// The loader's file filter. A file whose build constraint the default
// environment does not satisfy is skipped exactly as `go build` skips it,
// so a tag-gated file (the race half of a race/!race test pair) is linted
// only when the default environment builds it.

// fileConstraint extracts a file's //go:build constraint from the comments
// preceding its package clause. Returns nil when the file is
// unconstrained. gofmt writes a //go:build line beside any legacy
// // +build lines, and that line takes precedence, so only it is read.
func fileConstraint(f *ast.File) constraint.Expr {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if constraint.IsGoBuild(c.Text) {
				if e, err := constraint.Parse(c.Text); err == nil {
					return e
				}
			}
		}
	}
	return nil
}

// unixGOOS mirrors the "unix" build tag's OS set (the members relevant to
// a pure-stdlib linter).
var unixGOOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "linux": true,
	"netbsd": true, "openbsd": true, "solaris": true,
}

// tagSatisfied evaluates one build tag against the default environment.
func tagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		return unixGOOS[runtime.GOOS]
	}
	// The module's go directive predates the running toolchain, so every
	// release tag up to the toolchain's own is satisfied — and a linter
	// running on the toolchain that builds the module can treat them all
	// as such.
	return strings.HasPrefix(tag, "go1.")
}

// constraintSatisfied reports whether f's build constraint (if any) holds
// under the default environment.
func constraintSatisfied(f *ast.File) bool {
	e := fileConstraint(f)
	return e == nil || e.Eval(tagSatisfied)
}
