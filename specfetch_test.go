package specfetch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"specfetch"
)

// TestFacadeExportsShown holds the facade to its rule (DESIGN.md §3):
// every name specfetch.go exports is used as specfetch.Name by an Example
// function or in README.md, and every specfetch.Name README.md uses is
// exported.
func TestFacadeExportsShown(t *testing.T) {
	fset := token.NewFileSet()
	src, err := parser.ParseFile(fset, "specfetch.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range src.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declared[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					declared[spec.Name.Name] = true
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						declared[id.Name] = true
					}
				}
			}
		}
	}
	var exported []string
	for name := range declared {
		if ast.IsExported(name) {
			exported = append(exported, name)
		}
	}
	sort.Strings(exported)

	example := regexp.MustCompile(`^Example($|_|[A-Z])`)
	shown := map[string]bool{}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !example.MatchString(fn.Name.Name) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "specfetch" {
						shown[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`specfetch\.([A-Z]\w*)`).FindAllSubmatch(readme, -1) {
		name := string(m[1])
		shown[name] = true
		if !declared[name] {
			t.Errorf("README.md uses specfetch.%s, which specfetch.go does not declare", name)
		}
	}
	for _, name := range exported {
		if !shown[name] {
			t.Errorf("specfetch.go exports %s, which no Example function and no README line uses", name)
		}
	}
}

// TestPublicAPIEndToEnd drives the façade the way the README shows.
func TestPublicAPIEndToEnd(t *testing.T) {
	bench, err := specfetch.BuildBenchmark(specfetch.GCC())
	if err != nil {
		t.Fatal(err)
	}
	cfg := specfetch.DefaultConfig()
	cfg.Policy = specfetch.Resume
	res, err := specfetch.RunBenchmark(bench, cfg, 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts < 100_000 || res.TotalISPI() <= 0 {
		t.Errorf("result: %+v", res)
	}
	sum := 0.0
	for _, c := range specfetch.Components() {
		sum += res.ISPI(c)
	}
	if d := sum - res.TotalISPI(); d > 1e-9 || d < -1e-9 {
		t.Errorf("component ISPIs sum to %v, total %v", sum, res.TotalISPI())
	}
	// A budget no run can honour is an error, not a zero-instruction run.
	for _, insts := range []int64{0, math.MaxInt64} {
		if _, err := specfetch.RunBenchmark(bench, cfg, insts, 1); err == nil {
			t.Errorf("RunBenchmark accepted the budget %d", insts)
		}
	}
}

func TestProfileLookup(t *testing.T) {
	if len(specfetch.Profiles()) != 13 {
		t.Errorf("profiles = %d, want 13", len(specfetch.Profiles()))
	}
	p, ok := specfetch.ProfileByName("cfront")
	if !ok || p.Name != "cfront" {
		t.Errorf("lookup: %+v, %v", p, ok)
	}
	if _, ok := specfetch.ProfileByName("zzz"); ok {
		t.Error("bogus profile found")
	}
}

// TestCustomProgramAndTrace exercises the hand-built path through the
// façade types.
func TestCustomProgramAndTrace(t *testing.T) {
	b, err := specfetch.NewImageBuilder(0)
	if err != nil {
		t.Fatal(err)
	}
	b.AppendPlain(7)
	b.Append(specfetch.Inst{Kind: specfetch.CondBranch, Target: 0})
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	recs := []specfetch.TraceRecord{
		{Start: 0, N: 8, BrKind: specfetch.CondBranch, Taken: true, Target: 0},
		{Start: 0, N: 8, BrKind: specfetch.CondBranch, Taken: true, Target: 0},
	}
	res, err := specfetch.Run(specfetch.DefaultConfig(), img, specfetch.NewSliceTrace(recs), specfetch.NewPredictor())
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 16 {
		t.Errorf("insts = %d", res.Insts)
	}
}

// TestDeterministicResults: identical runs give identical measurements,
// under every policy.
func TestDeterministicResults(t *testing.T) {
	prof, ok := specfetch.ProfileByName("db++")
	if !ok {
		t.Fatal("no db++ profile")
	}
	bench, err := specfetch.BuildBenchmark(prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range specfetch.Policies() {
		cfg := specfetch.DefaultConfig()
		cfg.Policy = pol
		a, err := specfetch.RunBenchmark(bench, cfg, 50_000, 9)
		if err != nil {
			t.Fatal(err)
		}
		b, err := specfetch.RunBenchmark(bench, cfg, 50_000, 9)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: results differ:\n%+v\n%+v", pol, a, b)
		}
	}
}

// TestRunWithProbe: under every policy, a run with a window series
// attached reports the Result of the same run without it, and its series
// ends on that run's cumulative ISPI.
func TestRunWithProbe(t *testing.T) {
	prof, ok := specfetch.ProfileByName("groff")
	if !ok {
		t.Fatal("no groff profile")
	}
	bench, err := specfetch.BuildBenchmark(prof)
	if err != nil {
		t.Fatal(err)
	}
	const insts = 50_000
	for _, pol := range specfetch.Policies() {
		cfg := specfetch.DefaultConfig()
		cfg.Policy = pol
		cfg.MaxInsts = insts
		base, err := specfetch.Run(cfg, bench.Image(), bench.NewReader(7, insts*2), specfetch.NewPredictor())
		if err != nil {
			t.Fatal(err)
		}
		win := specfetch.NewWindowSeries()
		res, err := specfetch.RunWithProbe(cfg, bench.Image(), bench.NewReader(7, insts*2),
			specfetch.NewPredictor(), win, 5_000)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("%v: probed run diverged from the plain run:\nprobed %+v\n plain %+v", pol, res, base)
		}
		pts := specfetch.SeriesPoints(win.Records())
		if len(pts) == 0 {
			t.Fatalf("%v: no series points", pol)
		}
		if got, want := pts[len(pts)-1].CumISPI, res.TotalISPI(); got != want {
			t.Errorf("%v: final CumISPI = %.12f, want %.12f", pol, got, want)
		}
	}
}

// TestFacadeKernels exercises the kernel constructors through the facade.
func TestFacadeKernels(t *testing.T) {
	for name, mk := range map[string]func() (*specfetch.Bench, error){
		"loop":     func() (*specfetch.Bench, error) { return specfetch.LoopKernel(64, 8) },
		"call":     func() (*specfetch.Bench, error) { return specfetch.CallKernel(3, 8) },
		"dispatch": func() (*specfetch.Bench, error) { return specfetch.DispatchKernel(4, 6) },
	} {
		k, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := specfetch.RunBenchmark(k, specfetch.DefaultConfig(), 20_000, 1)
		if err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		if res.Insts < 20_000 {
			t.Errorf("%s: insts = %d", name, res.Insts)
		}
	}
}
