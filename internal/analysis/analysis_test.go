package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture golden files")

// TestAnalyzerFixtures runs each analyzer over its own fixture package and
// compares the rendered diagnostics against the checked-in golden file.
// Regenerate with `go test ./internal/analysis -run Fixtures -update`.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			dir := "./testdata/src/" + a.Name
			pkgs, err := Load(".", []string{dir})
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("fixture loaded %d packages, want 1", len(pkgs))
			}
			if errs := pkgs[0].TypeErrors; len(errs) != 0 {
				t.Fatalf("fixture does not type-check: %v", errs)
			}

			diags := Run(pkgs, []*Analyzer{a})
			if len(diags) == 0 {
				t.Fatalf("fixture produced no findings; the analyzer is not firing")
			}
			base, err := filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, d := range diags {
				sb.WriteString(d.String(base))
				sb.WriteByte('\n')
			}
			got := sb.String()

			golden := filepath.Join(dir, a.Name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics diverge from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestExternalTestPackageFixture proves Load stands up external foo_test
// packages: the exttest fixture's base package is clean and its only
// finding lives in an exttest_test file, so any diagnostic at all means
// the external unit was parsed, type-checked, and analyzed.
func TestExternalTestPackageFixture(t *testing.T) {
	dir := "./testdata/src/exttest"
	pkgs, err := Load(".", []string{dir})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("fixture loaded %d packages, want 2 (base + external test)", len(pkgs))
	}
	if !strings.HasSuffix(pkgs[0].PkgPath, "/exttest") {
		t.Fatalf("base unit path = %q, want .../exttest", pkgs[0].PkgPath)
	}
	if !strings.HasSuffix(pkgs[1].PkgPath, "/exttest_test") {
		t.Fatalf("external unit path = %q, want .../exttest_test", pkgs[1].PkgPath)
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) != 0 {
			t.Fatalf("%s: fixture does not type-check: %v", p.PkgPath, p.TypeErrors)
		}
	}

	diags := Run(pkgs, All())
	if len(diags) == 0 {
		t.Fatal("fixture produced no findings; the external test package was not analyzed")
	}
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) != "ext_test.go" {
			t.Errorf("finding outside the external test file: %s", d.String(""))
		}
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String(absDir))
		sb.WriteByte('\n')
	}
	got := sb.String()

	golden := filepath.Join(dir, "exttest.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics diverge from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestHosttimeWallClockSanctioned proves the wall-clock allowlist cuts
// exactly one way: the hosttime fixture's time.Now/time.Since produce zero
// determinism findings, while the identical calls in the parent determinism
// fixture (no hosttime path segment) are still flagged.
func TestHosttimeWallClockSanctioned(t *testing.T) {
	dir := "./testdata/src/determinism/hosttime"
	pkgs, err := Load(".", []string{dir})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture loaded %d packages, want 1", len(pkgs))
	}
	if errs := pkgs[0].TypeErrors; len(errs) != 0 {
		t.Fatalf("fixture does not type-check: %v", errs)
	}
	if diags := Run(pkgs, []*Analyzer{Determinism}); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("sanctioned hosttime fixture flagged: %s", d.String(""))
		}
	}

	// The exemption must not leak outside a hosttime path segment: the
	// plain determinism fixture keeps its wall-clock findings.
	unsanctioned, err := Load(".", []string{"./testdata/src/determinism"})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	found := false
	for _, d := range Run(unsanctioned, []*Analyzer{Determinism}) {
		if strings.Contains(d.Message, "time.Now") {
			found = true
		}
	}
	if !found {
		t.Error("time.Now outside hosttime no longer flagged; the allowlist leaked")
	}
}

// TestLoadRepo checks the loader stands up the whole module offline: every
// package parses and type-checks with stdlib imports resolved from export
// data, and "..." stops at the nested perfbench module, as the go tool's
// does.
func TestLoadRepo(t *testing.T) {
	pkgs, err := Load(".", []string{"../../..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("only %d packages loaded from the module root", len(pkgs))
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) != 0 {
			t.Errorf("%s: type errors: %v", p.PkgPath, p.TypeErrors)
		}
		if strings.HasPrefix(p.PkgPath, "specfetch/perfbench") {
			t.Errorf("%s: loaded from the nested perfbench module", p.PkgPath)
		}
	}
}

// TestByName covers the -only flag's analyzer resolution.
func TestByName(t *testing.T) {
	as, err := ByName("determinism, errcheck")
	if err != nil || len(as) != 2 || as[0].Name != "determinism" || as[1].Name != "errcheck" {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown analyzer accepted")
	}
}
