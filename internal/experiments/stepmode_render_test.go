package experiments

import (
	"strings"
	"testing"

	"specfetch/internal/core"
)

// TestStepModeRenderIdentity is the end-to-end arm of the step-mode
// differential suite: it renders every Catalogue() artifact through the
// whole experiment pipeline — trace memoization, arenas, worker pool,
// builders, text renderers — under the cycle-by-cycle reference stepper
// and under the skip-ahead core, and requires byte-identical output. Table
// 6 and Figure 1 are also rendered with the audit probe attached, in both
// cores. The core suite proves the engines agree cell by cell; this proves
// nothing between the engine and the printed paper artifacts depends on
// which core ran.
func TestStepModeRenderIdentity(t *testing.T) {
	t.Parallel()
	base := Options{Insts: 20_000, Workers: 1}
	// The cells run serially, so the race detector has nothing to add
	// beyond gcc and groff; plain go test covers all 13 profiles.
	if testing.Short() || raceEnabled {
		base.Benchmarks = []string{"gcc", "groff"}
	}

	render := func(a Artifact, mode core.StepMode, audit int) string {
		t.Helper()
		opt := base
		opt.StepMode = mode
		opt.AuditSample = audit
		r, err := a.Build(opt)
		if err != nil {
			t.Fatalf("%s (mode %v, audit %d): %v", a.Name, mode, audit, err)
		}
		var b strings.Builder
		if err := r.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	type arm struct {
		name  string
		mode  core.StepMode
		audit int
	}
	for _, a := range Catalogue() {
		want := render(a, core.StepReference, 0)
		arms := []arm{{"skipahead", core.StepSkipAhead, 0}}
		if a.Name == "table 6" || a.Name == "figure 1" {
			arms = append(arms, arm{"skipahead-audited", core.StepSkipAhead, 3},
				arm{"reference-audited", core.StepReference, 3})
		}
		for _, arm := range arms {
			if got := render(a, arm.mode, arm.audit); got != want {
				t.Errorf("%s, %s: rendered output differs from reference\n--- reference ---\n%s\n--- %s ---\n%s",
					a.Name, arm.name, want, arm.name, got)
			}
		}
	}
}
