package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// TestUnitCheckNegativeFixture proves the analyzer's precision: the
// unitcheckok fixture exercises every sanctioned crossing — Cycles.Slots /
// Slots.Cycles, the Int64 boundary method, float ratios, untyped-constant
// scaling, raw-wrapping conversions, and json-tagged wire fields — and none
// of it may be flagged. (TestAnalyzerFixtures covers recall on the positive
// fixture; it requires at least one finding, so the clean fixture needs its
// own test.)
func TestUnitCheckNegativeFixture(t *testing.T) {
	dir := "./testdata/src/unitcheckok"
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
	for _, d := range Run(pkgs, []*Analyzer{UnitCheck}) {
		t.Errorf("sanctioned form flagged: %s", d.String(""))
	}
}

// TestLoadResolvesUnitMethodSetsAcrossPackages proves the loader stands up
// defined-type method sets across package boundaries: internal/obs calls
// (until - cy).Slots(width) on metrics.Cycles values it never defines, so a
// loader that dropped cross-package method sets would report type errors
// there. The test pins the mechanism (the method set on the imported Named
// type) and the outcome (obs type-checks and is unitcheck-clean).
func TestLoadResolvesUnitMethodSetsAcrossPackages(t *testing.T) {
	pkgs, err := Load(".", []string{"../obs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded from ../obs")
	}
	var obsPkg *Package
	for _, p := range pkgs {
		if len(p.TypeErrors) != 0 {
			t.Fatalf("%s: type errors (unit method sets unresolved?): %v", p.PkgPath, p.TypeErrors)
		}
		if strings.HasSuffix(p.PkgPath, "internal/obs") {
			obsPkg = p
		}
	}
	if obsPkg == nil {
		t.Fatal("internal/obs not among the loaded packages")
	}

	// The metrics import inside the loaded obs package must carry the unit
	// types with their full method sets.
	var metricsPkg *types.Package
	for _, imp := range obsPkg.Types.Imports() {
		if strings.HasSuffix(imp.Path(), "internal/metrics") {
			metricsPkg = imp
		}
	}
	if metricsPkg == nil {
		t.Fatal("internal/metrics not among obs imports")
	}
	for typ, methods := range map[string][]string{
		"Cycles": {"Slots", "Int64"},
		"Slots":  {"Cycles", "Int64", "PerInst"},
	} {
		obj, ok := metricsPkg.Scope().Lookup(typ).(*types.TypeName)
		if !ok {
			t.Fatalf("metrics.%s not found in the loaded import", typ)
		}
		mset := types.NewMethodSet(obj.Type())
		for _, m := range methods {
			found := false
			for i := 0; i < mset.Len(); i++ {
				if mset.At(i).Obj().Name() == m {
					found = true
				}
			}
			if !found {
				t.Errorf("metrics.%s method set lacks %s (have %v)", typ, m, mset)
			}
		}
	}

	// And the refactored tree itself is clean under the analyzer.
	for _, d := range Run(pkgs, []*Analyzer{UnitCheck}) {
		t.Errorf("internal/obs not unitcheck-clean: %s", d.String(""))
	}
}
