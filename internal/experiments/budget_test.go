package experiments

import (
	"math"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/synth"
)

// budgetBuilder is one builder under test, reduced to its error.
type budgetBuilder struct {
	name  string
	build func(Options) error
}

func builderOf[T any](name string, fn func(Options) (T, error)) budgetBuilder {
	return budgetBuilder{name, func(o Options) error { _, err := fn(o); return err }}
}

// TestBuildersRejectImpossibleBudgets: a budget that is not positive, or
// whose stream limit overflows, is an error from every builder, never a
// table of zeros. A builder that accepts one stops the test at once, since
// an unchecked overflowing budget may walk its stream without end.
func TestBuildersRejectImpossibleBudgets(t *testing.T) {
	p, _ := synth.ProfileByName("gcc")
	b, err := benchFor(p)
	if err != nil {
		t.Fatal(err)
	}
	builders := []budgetBuilder{
		builderOf("table 2", Table2), builderOf("table 3", Table3), builderOf("table 4", Table4),
		builderOf("table 5", Table5), builderOf("table 6", Table6), builderOf("table 7", Table7),
		builderOf("figure 1", Figure1), builderOf("figure 2", Figure2),
		builderOf("figure 3", Figure3), builderOf("figure 4", Figure4),
		builderOf("modern", ModernStudy),
		{"characterize", func(o Options) error { _, err := Characterize(b, o); return err }},
		{"latency sweep", func(o Options) error { _, err := LatencySweep(o, nil); return err }},
		{"oracle", func(o Options) error { _, err := OracleSelectorData(o, 0, nil); return err }},
		{"adaptive", func(o Options) error { _, err := AdaptiveStudyData(o, "phase:6", 0, 0, nil); return err }},
		{"sensitivity", func(o Options) error { _, err := SeedSensitivity(o, 2); return err }},
	}
	for _, name := range AblationNames() {
		builders = append(builders, builderOf("ablation "+name, Ablations()[name]))
	}
	// math.MaxInt64/5*4 + 3 is the smallest budget whose limit overflows.
	for _, insts := range []int64{0, -1, math.MaxInt64, math.MaxInt64/5*4 + 3} {
		opt := Options{Insts: insts, Benchmarks: []string{"gcc"}, Workers: 1}
		for _, bb := range builders {
			if bb.build(opt) == nil {
				t.Fatalf("%s accepted the instruction budget %d", bb.name, insts)
			}
		}
	}
}

// TestJobRunnerRejectsImpossibleBudgets: a worker refuses a spec whose
// budget no run can honour instead of returning a zero-instruction Result.
func TestJobRunnerRejectsImpossibleBudgets(t *testing.T) {
	p, _ := synth.ProfileByName("gcc")
	r := NewJobRunner(nil)
	for _, insts := range []int64{0, math.MaxInt64} {
		spec := jobSpec(t, p, defaultStreamSeed, insts, baseConfig(core.Resume))
		if jr, err := r.Run(spec); err == nil {
			t.Errorf("budget %d: Run returned %d instructions and no error", insts, jr.Result.Insts)
		}
	}
}
