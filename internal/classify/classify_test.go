package classify

import (
	"strings"
	"testing"

	"specfetch/internal/bpred"
	"specfetch/internal/core"
	"specfetch/internal/synth"
)

// armRun runs one classification arm under pol over b's stream on seed.
func armRun(t *testing.T, b *synth.Bench, pol core.Policy, seed uint64, insts int64) core.Result {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxInsts = insts
	res, err := core.Run(ArmConfig(cfg, pol), b.Image(), b.NewReader(seed, insts*2), bpred.NewDefaultDecoupled())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// classifyBench categorizes the Oracle and Optimistic arms of one bench's
// stream, as Table 4 does.
func classifyBench(t *testing.T, name string, insts int64) Categories {
	t.Helper()
	p, ok := synth.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	b := synth.MustBuild(p)
	cat, err := Categorize(armRun(t, b, core.Oracle, 1, insts), armRun(t, b, core.Optimistic, 1, insts))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestCategoriesConsistency checks the structural identities the paper's
// Table 4 is built on.
func TestCategoriesConsistency(t *testing.T) {
	cat := classifyBench(t, "gcc", 200_000)

	for _, v := range []struct {
		name string
		val  float64
	}{
		{"BothMiss", cat.BothMiss}, {"SpecPollute", cat.SpecPollute},
		{"SpecPrefetch", cat.SpecPrefetch}, {"WrongPath", cat.WrongPath},
	} {
		if v.val < 0 {
			t.Errorf("%s = %v, negative", v.name, v.val)
		}
	}
	if cat.Insts < 200_000 {
		t.Errorf("insts = %d", cat.Insts)
	}
	// Optimistic generates strictly more traffic than Oracle (wrong-path
	// fills exist on a mispredicting workload).
	if cat.TrafficRatio <= 1 {
		t.Errorf("traffic ratio = %v, want > 1", cat.TrafficRatio)
	}
	// Wrong-path misses must exist for gcc's mispredict rate.
	if cat.WrongPath == 0 {
		t.Error("no wrong-path misses classified")
	}
}

// TestSpecPrefetchDominatesPollution: the paper's headline observation —
// the prefetch effect of wrong-path fills outweighs the pollution effect.
func TestSpecPrefetchDominatesPollution(t *testing.T) {
	for _, name := range []string{"gcc", "groff"} {
		cat := classifyBench(t, name, 200_000)
		if cat.SpecPrefetch <= cat.SpecPollute {
			t.Errorf("%s: SpecPrefetch %.3f not above SpecPollute %.3f",
				name, cat.SpecPrefetch, cat.SpecPollute)
		}
	}
}

// TestFortranEffectsMinimal: for the predictable Fortran stand-ins both
// speculative effects are small relative to the base miss ratio.
func TestFortranEffectsMinimal(t *testing.T) {
	cat := classifyBench(t, "su2cor", 200_000)
	if cat.SpecPollute > 0.2*cat.BothMiss {
		t.Errorf("su2cor: pollution %.3f not small vs both-miss %.3f", cat.SpecPollute, cat.BothMiss)
	}
	if cat.TrafficRatio > 1.25 {
		t.Errorf("su2cor: traffic ratio %.2f too high for a predictable workload", cat.TrafficRatio)
	}
}

// TestRunDetectsInstMismatch: classification requires both arm runs to
// see the same trace; Categorize must refuse arms cut at different
// instruction counts or run over different streams.
func TestRunDetectsInstMismatch(t *testing.T) {
	p, _ := synth.ProfileByName("li")
	b := synth.MustBuild(p)
	oracle := armRun(t, b, core.Oracle, 1, 50_000)
	for _, c := range []struct {
		opt  core.Result
		want string
	}{
		{armRun(t, b, core.Optimistic, 1, 40_000), "instruction counts diverge"},
		{armRun(t, b, core.Optimistic, 2, 50_000), "reference streams diverge"},
	} {
		if _, err := Categorize(oracle, c.opt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Categorize: %v, want an error saying %q", err, c.want)
		}
	}
}

// TestCategorizeNeedsBitmaps: results without a valid miss bitmap (runs
// made without ArmConfig) are refused rather than read as sharing no miss.
func TestCategorizeNeedsBitmaps(t *testing.T) {
	res := core.Result{Insts: 10, RightPathAccesses: 5, RightPathMisses: 2}
	if _, err := Categorize(res, res); err == nil {
		t.Error("results without miss bitmaps categorized")
	}
	res.MissBits = []uint64{0b10010}
	if _, err := Categorize(res, res); err != nil {
		t.Errorf("results with valid bitmaps refused: %v", err)
	}
}
