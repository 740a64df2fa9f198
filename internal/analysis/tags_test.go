package analysis

import (
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"testing"
)

// parseHeader parses a source snippet with comments, for constraint tests.
func parseHeader(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTagSatisfied pins the default-environment tag semantics the loader's
// file filter is built on.
func TestTagSatisfied(t *testing.T) {
	cases := []struct {
		tag  string
		want bool
	}{
		{"linux", true},      // runtime.GOOS in CI and dev here
		{"windows", false},   // foreign platform
		{"gc", true},         // this toolchain
		{"go1.2", true},      // release tags all satisfied
		{"slowclock", false}, // custom tag off by default
	}
	for _, c := range cases {
		if got := tagSatisfied(c.tag); got != c.want {
			t.Errorf("tagSatisfied(%q) = %v, want %v", c.tag, got, c.want)
		}
	}
}

// TestConstraintAfterPackageIgnored: a //go:build-shaped comment below the
// package clause is ordinary text, not a constraint.
func TestConstraintAfterPackageIgnored(t *testing.T) {
	src := "package p\n\n//go:build slowclock\nvar X int\n"
	if e := fileConstraint(parseHeader(t, src)); e != nil {
		t.Errorf("comment after package clause treated as constraint: %v", constraint.Expr(e))
	}
}
