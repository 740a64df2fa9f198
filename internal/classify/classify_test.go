package classify

import (
	"testing"

	"specfetch/internal/bpred"
	"specfetch/internal/core"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

func classifyBench(t *testing.T, name string, insts int64) Categories {
	t.Helper()
	p, ok := synth.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	b := synth.MustBuild(p)
	cfg := core.DefaultConfig()
	cfg.MaxInsts = insts
	cat, err := Run(cfg, b.Image(),
		func() trace.Reader { return b.NewReader(1, insts*2) },
		func() bpred.Predictor { return bpred.NewDefaultDecoupled() })
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

// TestRunDetectsInstMismatch: classification requires both runs to see the
// same trace; a reader factory returning different streams must error.
func TestRunDetectsInstMismatch(t *testing.T) {
	p, _ := synth.ProfileByName("li")
	b := synth.MustBuild(p)
	cfg := core.DefaultConfig()
	cfg.MaxInsts = 50_000
	seed := uint64(0)
	_, err := Run(cfg, b.Image(),
		func() trace.Reader { seed++; return b.NewReader(seed, 100_000) },
		func() bpred.Predictor { return bpred.NewDefaultDecoupled() })
	if err == nil {
		t.Error("divergent traces not detected")
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
