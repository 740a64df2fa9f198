package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadOne loads the single package the pattern names, resolved relative to
// dir.
func loadOne(t *testing.T, dir, pattern string) *Package {
	t.Helper()
	pkgs, err := Load(dir, []string{pattern})
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("%s loaded %d packages, want 1", pattern, len(pkgs))
	}
	return pkgs[0]
}

// fileNames lists the base names of the files pkg was checked from.
func fileNames(pkg *Package) []string {
	var names []string
	for _, f := range pkg.Files {
		names = append(names, filepath.Base(pkg.Fset.File(f.Pos()).Name()))
	}
	return names
}

// TestTagSatisfied pins the build-tag semantics of the loader's file set:
// unix (or !unix), gc and go1.2 files are built by the default environment,
// a custom slowclock tag is not, and the finding in the slowclock file is
// never reported.
func TestTagSatisfied(t *testing.T) {
	pkg := loadOne(t, ".", "./testdata/src/buildtags")
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("fixture does not type-check: %v", pkg.TypeErrors)
	}
	got := map[string]bool{}
	for _, name := range fileNames(pkg) {
		got[name] = true
	}
	if !got["gc.go"] || !got["release.go"] || got["unix.go"] == got["notunix.go"] || got["slowclock.go"] {
		t.Errorf("loaded files %v, want gc.go, release.go, one of unix.go and notunix.go, and no slowclock.go", fileNames(pkg))
	}
	for _, d := range Run([]*Package{pkg}, All()) {
		t.Errorf("finding in a file the default environment does not build: %s", d.String(""))
	}
}

// TestConstraintAfterPackageIgnored: a //go:build-shaped comment below the
// package clause is ordinary text, not a constraint. gofmt moves such a
// line above the package clause, so the file is written to a scratch
// module rather than kept in testdata.
func TestConstraintAfterPackageIgnored(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module late\n\ngo 1.22\n",
		"p.go":   "package p\n\n//go:build slowclock\nvar X int\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg := loadOne(t, dir, ".")
	if got := fileNames(pkg); len(got) != 1 || got[0] != "p.go" {
		t.Errorf("loaded files %v, want [p.go]", got)
	}
}

// TestForeignGOOSFileSkipped: a file named for another GOOS is left out,
// as `go build` leaves it out, so its redeclaration of X is no error.
func TestForeignGOOSFileSkipped(t *testing.T) {
	pkg := loadOne(t, ".", "./testdata/src/goosfile")
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("fixture does not type-check: %v", pkg.TypeErrors)
	}
	if got := fileNames(pkg); len(got) != 1 || got[0] != "a.go" {
		t.Errorf("loaded files %v, want [a.go]", got)
	}
}

// TestDependencyTestFilesHidden: an importer sees only its dependency's
// non-test files, so calling a function declared in the dependency's
// _test.go file is the same type error `go build` reports.
func TestDependencyTestFilesHidden(t *testing.T) {
	pkg := loadOne(t, ".", "./testdata/src/testonlyuse")
	if len(pkg.TypeErrors) != 1 || !strings.Contains(pkg.TypeErrors[0].Error(), "undefined: testonlydep.OnlyInTests") {
		t.Errorf("type errors %v, want one undefined: testonlydep.OnlyInTests", pkg.TypeErrors)
	}
}
