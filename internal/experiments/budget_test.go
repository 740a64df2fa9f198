package experiments

import (
	"math"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
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
	builders := allBuilders()
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

// TestBuildersRejectNegativeAuditSample: a negative audit rate is an error
// from every builder, never a sweep that silently runs unaudited in
// process, nor one whose every batch a worker refuses so that it silently
// runs locally. Through a fleet the error comes before any batch is sent.
func TestBuildersRejectNegativeAuditSample(t *testing.T) {
	var jobs atomic.Int64
	srv := httptest.NewServer(distsweep.NewServer(distsweep.ServerOptions{
		Runner: func(spec distsweep.JobSpec) (distsweep.JobResult, error) {
			jobs.Add(1)
			return NewJobRunner(nil).Run(spec)
		},
	}).Handler())
	t.Cleanup(srv.Close)
	local := Options{Insts: 20_000, Benchmarks: []string{"gcc"}, Workers: 1, AuditSample: -3}
	remote := local
	remote.Dispatch = distsweep.New(distsweep.CoordinatorOptions{Workers: []string{srv.URL}})
	for _, bb := range allBuilders() {
		if bb.build(local) == nil {
			t.Errorf("%s accepted audit sample -3 in process", bb.name)
		}
		if bb.build(remote) == nil {
			t.Errorf("%s accepted audit sample -3 through a worker", bb.name)
		}
	}
	if n, s := jobs.Load(), remote.Dispatch.Status(); n != 0 || s.RemoteBatches != 0 || s.LocalBatches != 0 {
		t.Errorf("worker ran %d jobs, remote/local batches %d/%d; want nothing dispatched",
			n, s.RemoteBatches, s.LocalBatches)
	}
}

// allBuilders lists every builder that walks streams: the catalogue's
// artifacts and the three studies that take parameters.
func allBuilders() []budgetBuilder {
	var builders []budgetBuilder
	for _, a := range Catalogue() {
		builders = append(builders, builderOf(a.Name, a.Build))
	}
	return append(builders,
		budgetBuilder{"oracle", func(o Options) error { _, err := OracleSelectorData(o, 0, nil); return err }},
		budgetBuilder{"adaptive", func(o Options) error { _, err := AdaptiveStudyData(o, "phase:6", 0, 0, nil); return err }},
		budgetBuilder{"sensitivity", func(o Options) error { _, err := SeedSensitivity(o, 2); return err }},
	)
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
