package specfetch_test

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"

	"specfetch"
)

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
}

func TestPolicyParsing(t *testing.T) {
	for _, p := range specfetch.Policies() {
		got, err := specfetch.ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: %v, %v", p, got, err)
		}
	}
	if _, err := specfetch.ParsePolicy("nope"); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestAdaptiveFacade drives the Adaptive meta-policy end to end through
// the façade: a pinned chooser must reproduce the static run bit for bit,
// and a real strategy must run (and report its switches) deterministically.
func TestAdaptiveFacade(t *testing.T) {
	if got, err := specfetch.ParsePolicy("adaptive"); err != nil || got != specfetch.Adaptive {
		t.Fatalf("ParsePolicy(adaptive) = %v, %v", got, err)
	}
	for _, p := range specfetch.Policies() {
		if p == specfetch.Adaptive {
			t.Fatal("Policies() lists the Adaptive meta-policy")
		}
	}
	if len(specfetch.ChooserStrategies()) == 0 {
		t.Fatal("no chooser strategies advertised")
	}
	if _, err := specfetch.NewChooser("bogus"); err == nil {
		t.Fatal("bogus strategy accepted")
	}

	bench, err := specfetch.BuildBenchmark(specfetch.GCC())
	if err != nil {
		t.Fatal(err)
	}
	static := specfetch.DefaultConfig()
	static.Policy = specfetch.Resume
	want, err := specfetch.RunBenchmark(bench, static, 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}

	cfg := specfetch.DefaultConfig()
	cfg.Policy = specfetch.Adaptive
	cfg.AdaptInterval = 10_000
	cfg.Chooser, err = specfetch.NewChooser("pinned:resume")
	if err != nil {
		t.Fatal(err)
	}
	got, err := specfetch.RunBenchmark(bench, cfg, 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.PolicySwitches != 0 {
		t.Errorf("pinned chooser switched %d times", got.PolicySwitches)
	}
	got.Policy = want.Policy // the echoed policy is the one legitimate difference
	if !reflect.DeepEqual(got, want) {
		t.Errorf("adaptive pinned to resume differs from static resume:\n%+v\n%+v", got, want)
	}

	cfg.AdaptInterval = 1_000
	cfg.Chooser, err = specfetch.NewChooser("phase:3")
	if err != nil {
		t.Fatal(err)
	}
	a, err := specfetch.RunBenchmark(bench, cfg, 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.PolicySwitches == 0 {
		t.Error("phase:3 strategy never switched over its opening")
	}
	cfg.Chooser, err = specfetch.NewChooser("phase:3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := specfetch.RunBenchmark(bench, cfg, 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("adaptive runs with identical choosers differ:\n%+v\n%+v", a, b)
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

func TestClassifyMissesAPI(t *testing.T) {
	bench, err := specfetch.BuildBenchmark(specfetch.Li())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := specfetch.ClassifyMisses(bench, specfetch.DefaultConfig(), 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Insts < 100_000 || cat.BothMiss < 0 {
		t.Errorf("categories: %+v", cat)
	}
	// A budget no run can honour is an error, not a zero-instruction run.
	for _, insts := range []int64{0, math.MaxInt64} {
		if _, err := specfetch.RunBenchmark(bench, specfetch.DefaultConfig(), insts, 1); err == nil {
			t.Errorf("RunBenchmark accepted the budget %d", insts)
		}
		if _, err := specfetch.ClassifyMisses(bench, specfetch.DefaultConfig(), insts, 1); err == nil {
			t.Errorf("ClassifyMisses accepted the budget %d", insts)
		}
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

// TestDeterministicResults: identical runs give identical measurements.
func TestDeterministicResults(t *testing.T) {
	bench, _ := specfetch.BuildBenchmark(specfetch.DBpp())
	cfg := specfetch.DefaultConfig()
	cfg.Policy = specfetch.Optimistic
	a, err := specfetch.RunBenchmark(bench, cfg, 50_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := specfetch.RunBenchmark(bench, cfg, 50_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("results differ:\n%+v\n%+v", a, b)
	}
}

// TestFacadeIO exercises the file-format helpers exposed at the root:
// image serialization, trace writers, and the sniffing reader.
func TestFacadeIO(t *testing.T) {
	b, err := specfetch.NewImageBuilder(0)
	if err != nil {
		t.Fatal(err)
	}
	b.AppendPlain(3)
	b.Append(specfetch.Inst{Kind: specfetch.Jump, Target: 0})
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var imgBuf bytes.Buffer
	if err := specfetch.WriteImage(&imgBuf, img); err != nil {
		t.Fatal(err)
	}
	img2, err := specfetch.ReadImage(&imgBuf)
	if err != nil {
		t.Fatal(err)
	}
	if img2.NumInsts() != img.NumInsts() {
		t.Fatalf("image round trip changed size: %d vs %d", img2.NumInsts(), img.NumInsts())
	}

	recs := []specfetch.TraceRecord{
		{Start: 0, N: 4, BrKind: specfetch.Jump, Taken: true, Target: 0},
		{Start: 0, N: 4, BrKind: specfetch.Jump, Taken: true, Target: 0},
	}
	for name, mk := range map[string]func(io.Writer) specfetch.TraceWriter{
		"binary": func(w io.Writer) specfetch.TraceWriter { return specfetch.NewBinaryTraceWriter(w) },
		"text":   func(w io.Writer) specfetch.TraceWriter { return specfetch.NewTextTraceWriter(w) },
	} {
		var buf bytes.Buffer
		w := mk(&buf)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatalf("%s write: %v", name, err)
			}
		}
		type flusher interface{ Flush() error }
		if err := w.(flusher).Flush(); err != nil {
			t.Fatal(err)
		}
		rd, err := specfetch.OpenTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rd.Next()
		if err != nil || got != recs[0] {
			t.Fatalf("%s read back: %+v, %v", name, got, err)
		}
	}

	// The whole loop drives the engine end to end from the reparsed image.
	res, err := specfetch.Run(specfetch.DefaultConfig(), img2,
		specfetch.NewSliceTrace(recs), specfetch.NewPredictor())
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 8 {
		t.Errorf("insts = %d", res.Insts)
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
