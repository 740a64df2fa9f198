package synth

import (
	"runtime"
	"testing"
	"unsafe"

	"specfetch/internal/isa"
	"specfetch/internal/program"
	"specfetch/internal/trace"
)

// TestAllProfilesBuild generates every stock benchmark and validates the
// static image.
func TestAllProfilesBuild(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := p.Validate(); err != nil {
				t.Fatalf("profile invalid: %v", err)
			}
			b, err := Build(p)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			img := b.Image()
			if img.NumInsts() < 1000 {
				t.Errorf("suspiciously small image: %d insts", img.NumInsts())
			}
			if !img.Contains(b.Entry()) {
				t.Error("entry outside image")
			}
			st := img.Stats()
			if st.Branches == 0 || st.Conditional == 0 {
				t.Errorf("static mix missing branches: %+v", st)
			}
			// Every function should be marked.
			if got, want := len(img.Funcs()), p.NumFuncs+1; got != want {
				t.Errorf("functions = %d, want %d", got, want)
			}
		})
	}
}

// TestWalkerContinuity drains a bounded trace through trace.Collect, which
// validates every record and checks path continuity.
func TestWalkerContinuity(t *testing.T) {
	for _, name := range []string{"gcc", "fpppp", "db++", "li"} {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		b := MustBuild(p)
		recs, err := trace.Collect(trace.NewLimitReader(b.NewWalker(1), 100_000))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		// Every record's instructions must be inside the image, and branch
		// targets must land on instruction boundaries inside it.
		img := b.Image()
		for _, r := range recs {
			if !img.Contains(r.Start) || !img.Contains(r.Start.Plus(r.N-1)) {
				t.Fatalf("%s: record outside image: %+v", name, r)
			}
			if r.Taken && !img.Contains(r.Target) {
				t.Fatalf("%s: target outside image: %+v", name, r)
			}
		}
	}
}

// TestWalkerDeterminism: same profile and stream seed give identical
// traces; different stream seeds differ.
func TestWalkerDeterminism(t *testing.T) {
	b1 := MustBuild(GCC())
	b2 := MustBuild(GCC())

	r1, err := trace.Collect(trace.NewLimitReader(b1.NewWalker(7), 20_000))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := trace.Collect(trace.NewLimitReader(b2.NewWalker(7), 20_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("records diverge at %d: %+v vs %+v", i, r1[i], r2[i])
		}
	}

	r3, err := trace.Collect(trace.NewLimitReader(b1.NewWalker(8), 20_000))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < len(r1) && i < len(r3); i++ {
		if r1[i] == r3[i] {
			same++
		}
	}
	if same == len(r1) {
		t.Error("different stream seeds gave identical traces")
	}
}

// TestImageDeterminism: regenerating a profile yields a byte-identical
// static image.
func TestImageDeterminism(t *testing.T) {
	a, b := MustBuild(Groff()), MustBuild(Groff())
	if a.Image().NumInsts() != b.Image().NumInsts() {
		t.Fatal("image sizes differ across builds")
	}
	for pc := a.Image().Base(); pc < a.Image().End(); pc = pc.Next() {
		if a.Image().At(pc) != b.Image().At(pc) {
			t.Fatalf("images diverge at %s", pc)
		}
	}
	if a.Entry() != b.Entry() {
		t.Error("entries differ")
	}
}

// TestBranchFractionNearIntent: the dynamic branch fraction should be in a
// plausible band around the paper's Table 2 value for each stand-in.
func TestBranchFractionNearIntent(t *testing.T) {
	for _, p := range Profiles() {
		b := MustBuild(p)
		st, err := trace.Scan(trace.NewLimitReader(b.NewWalker(1), 200_000))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got := 100 * st.BranchFrac()
		want := PaperTargets[p.Name].BranchPct
		if got < want*0.5 || got > want*1.6 {
			t.Errorf("%s: branch%% = %.1f, paper %.1f (outside [0.5x,1.6x])", p.Name, got, want)
		}
	}
}

// TestCallStackBalance: returns always pop what calls pushed; the walker
// errors otherwise, so a long run without error plus plausible call/return
// parity is the check.
func TestCallStackBalance(t *testing.T) {
	b := MustBuild(Cfront())
	st, err := trace.Scan(trace.NewLimitReader(b.NewWalker(3), 300_000))
	if err != nil {
		t.Fatal(err)
	}
	if st.Returns == 0 || st.Calls == 0 {
		t.Fatal("no calls or returns in a call-heavy profile")
	}
	diff := st.Calls - st.Returns
	if diff < 0 || diff > 64 {
		t.Errorf("calls %d vs returns %d: imbalance %d beyond plausible stack depth",
			st.Calls, st.Returns, diff)
	}
}

// TestPhasedExecution: with phasing enabled, guard decisions respect the
// rotating window — consecutive iterations execute a consistent subset.
func TestPhasedExecution(t *testing.T) {
	p := Li() // li has phasing enabled
	if p.PhaseSites == 0 {
		t.Skip("li no longer phased")
	}
	b := MustBuild(p)
	w := b.NewWalker(1)
	// Drain some records; just assert the walk stays valid for a while and
	// the iteration counter advances.
	for i := 0; i < 50_000; i++ {
		if _, err := w.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if w.iter < 2 {
		t.Errorf("driver iterations = %d, want several", w.iter)
	}
}

// TestInPhaseWindow checks the window arithmetic directly.
func TestInPhaseWindow(t *testing.T) {
	p := Li()
	p.PhaseSites = 10
	p.PhaseIters = 2
	p.DriverCallSites = 40
	b := MustBuild(p)
	w := b.NewWalker(1)

	w.iter = 0 // base = 0: sites 0..9 active
	for idx := 0; idx < 40; idx++ {
		want := idx < 10
		if got := w.inPhase(idx); got != want {
			t.Errorf("iter 0, site %d: inPhase = %v, want %v", idx, got, want)
		}
	}
	w.iter = 2 // base = 5: sites 5..14 active
	for idx := 0; idx < 40; idx++ {
		want := idx >= 5 && idx < 15
		if got := w.inPhase(idx); got != want {
			t.Errorf("iter 2, site %d: inPhase = %v, want %v", idx, got, want)
		}
	}
}

// TestCondClassTagging: every conditional site carries a class tag.
func TestCondClassTagging(t *testing.T) {
	b := MustBuild(DBpp())
	img := b.Image()
	classes := map[string]int{}
	for pc := img.Base(); pc < img.End(); pc = pc.Next() {
		if img.At(pc).Kind == isa.CondBranch {
			cls := b.CondClass(pc)
			if cls == "" {
				t.Fatalf("conditional at %s has no class", pc)
			}
			classes[cls]++
		}
	}
	for _, want := range []string{"bias", "loop", "guard"} {
		if classes[want] == 0 {
			t.Errorf("no %q sites generated", want)
		}
	}
}

// TestProfileValidation exercises the validation failure paths.
func TestProfileValidation(t *testing.T) {
	mutations := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.NumFuncs = 0 },
		func(p *Profile) { p.SegmentsPerFunc = [2]int{5, 2} },
		func(p *Profile) { p.MeanBlockLen = 0.5 },
		func(p *Profile) { p.MeanLoopTrip = 0.5 },
		func(p *Profile) { p.LoopFrac = 0.9; p.CallFrac = 0.3 },
		func(p *Profile) { p.IndirectCallFrac = 1.5 },
		func(p *Profile) { p.IndirectFanout = 0 },
		func(p *Profile) { p.CondBiasFrac = 1.2 },
		func(p *Profile) { p.CondBiasFrac = 0.8; p.PatternFrac = 0.5 },
		func(p *Profile) { p.BiasNear = 0.6 },
		func(p *Profile) { p.BiasTakenSide = -0.1 },
		func(p *Profile) { p.HardRange = [2]float64{0.8, 0.2} },
		func(p *Profile) { p.ZipfS = 0 },
		func(p *Profile) { p.CallDepth = 0 },
		func(p *Profile) { p.DriverCallSites = 0 },
		func(p *Profile) { p.DriverCallExecP = 0 },
		func(p *Profile) { p.LoopBodyMul = 0 },
		func(p *Profile) { p.PhaseSites = 9999 },
		func(p *Profile) { p.PhaseSites = 5; p.PhaseIters = 0 },
	}
	for i, mut := range mutations {
		p := GCC()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, p)
		}
	}
}

// TestFunctionAlignment: every generated function entry is line aligned.
func TestFunctionAlignment(t *testing.T) {
	b := MustBuild(Tex())
	for _, f := range b.Image().Funcs() {
		if uint64(f.Entry)%uint64(isa.DefaultLineBytes) != 0 {
			t.Errorf("function %s at %s not line aligned", f.Name, f.Entry)
		}
	}
}

// TestModernProfilesBuild: the datacenter stand-ins generate valid,
// genuinely large images and walkable traces.
func TestModernProfilesBuild(t *testing.T) {
	for _, p := range ModernProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			b, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			if kb := b.Image().SizeBytes() / 1024; kb < 300 {
				t.Errorf("footprint %dKB not datacenter scale", kb)
			}
			if _, err := trace.Collect(trace.NewLimitReader(b.NewWalker(1), 60_000)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBuildAllocs guards the generator's footprint: building gcc allocates
// at most 1.5 times what the bench keeps, its image slots plus its site
// tables (1.34x when written). Growing the image one instruction at a time,
// beside address-keyed site maps, allocated 4.2 MB, about 4.3 times.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := MustBuild(GCC())
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc

	kept := b.Image().NumInsts()*int(unsafe.Sizeof(program.Inst{})) +
		len(b.site)*int(unsafe.Sizeof(b.site[0])) +
		len(b.conds)*int(unsafe.Sizeof(condMeta{})) +
		len(b.indirs)*int(unsafe.Sizeof(indirectMeta{}))
	for _, m := range b.indirs {
		kept += len(m.targets) * int(unsafe.Sizeof(isa.Addr(0)))
	}
	limit := uint64(kept) * 3 / 2
	t.Logf("%d instructions: %d bytes allocated, %d kept (%.2fx), limit %d",
		b.Image().NumInsts(), alloc, kept, float64(alloc)/float64(kept), limit)
	if alloc > limit {
		t.Errorf("building gcc allocated %d bytes, want at most %d (1.5x the %d bytes kept)", alloc, limit, kept)
	}
}
