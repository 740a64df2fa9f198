package experiments

import (
	"fmt"
	"sort"
	"sync"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// Options selects what and how much to simulate.
type Options struct {
	// Insts is the per-benchmark correct-path instruction budget.
	Insts int64
	// Benchmarks restricts the run to these profile names (nil = all 13).
	Benchmarks []string
	// Workers bounds the sweep executor's worker pool: 0 means GOMAXPROCS,
	// 1 runs every cell serially on the calling goroutine. Rendered tables
	// and figures are byte-identical at every worker count; see shard.go.
	Workers int
	// AuditSample, when positive, attaches a sampled obs.AuditProbe to every
	// simulation in the sweep (SampleEvery = AuditSample; 1 audits every
	// region). Stream violations panic with a cycle-stamped *obs.AuditError,
	// and each run's final accounting identities are verified. Like Insts
	// it is written into every cell's JobSpec, so a negative rate fails
	// that spec's validation before any cell runs, in process or remote.
	AuditSample int
	// Progress, if non-nil, receives a one-line message after each completed
	// simulation. Runs execute on worker goroutines, so it may be called
	// concurrently.
	Progress func(msg string)
	// Metrics, if non-nil, accumulates campaign counters
	// (specfetch_simulations_total, specfetch_simulated_insts_total) and,
	// when Spans is also set, the specfetch_cell_seconds latency histogram.
	Metrics *obs.Registry
	// Spans, if non-nil, records one host-side span per sweep work unit
	// (simulation cell or bench row): wall time, pool worker, and heap
	// allocations. Tracing is observe-only — rendered sweep bytes are
	// byte-identical with it on or off (asserted by the differential
	// harness in shard_test.go).
	Spans *obs.SpanTracer
	// Dispatch, when non-nil, is the coordinator of a sweepworker fleet:
	// every work-list whose benches are all rebuilt from their profiles is
	// dispatched to it in batches over the distsweep protocol instead of
	// running on the in-process pool. A cell is its JobSpec, so no cell
	// holds in-process state; work-lists with a bench its profile does not
	// rebuild (among the builders only the layout ablation's reordered
	// benches), and any batch the fleet cannot complete, run on the local
	// executor.
	// Reduction order is unchanged, so rendered bytes are invariant in
	// process count exactly as they are in worker count. One coordinator
	// may serve many builders, so its retry/backoff/eviction state spans
	// a campaign.
	Dispatch *distsweep.Coordinator
	// FlushInterval, when positive, stamps Config.FlushInterval onto the
	// cells of the studies that honor it (the oracle selector and the
	// adaptive study): the I-cache is invalidated every FlushInterval
	// correct-path instructions, modeling periodic context switches. Unlike
	// a sampling interval this is NOT observe-only — it changes simulated
	// results — which is why it only applies to the studies whose question
	// ("does adaptation pay under phased behavior?") it defines. Zero keeps
	// every cache warm for the whole run, the historical behavior.
	FlushInterval int64
	// StepMode is the engine core runCellsFull writes into every cell's
	// Config: the skip-ahead event core (the zero value) or the
	// cycle-by-cycle reference stepper. The two render identical bytes for
	// every catalogue artifact (TestStepModeRenderIdentity); the reference
	// core is the oracle the skip-ahead core is checked against.
	StepMode core.StepMode
}

// observe reports one finished simulation to the optional progress and
// metrics sinks.
func (opt Options) observe(bench string, pol core.Policy, res core.Result) {
	if opt.Metrics != nil {
		opt.Metrics.Counter("specfetch_simulations_total",
			"Completed simulation runs.").Inc()
		opt.Metrics.Counter("specfetch_simulated_insts_total",
			"Correct-path instructions simulated.").Add(res.Insts)
	}
	if opt.Progress != nil {
		opt.Progress(fmt.Sprintf("%s/%s: %d insts, %d cycles, ISPI %.3f",
			bench, pol, res.Insts, res.Cycles, res.TotalISPI()))
	}
}

// QuickOptions is used by tests: fewer instructions, representative subset.
func QuickOptions() Options {
	return Options{Insts: 300_000, Benchmarks: []string{"doduc", "gcc", "groff"}}
}

// selected returns the benchmark profiles the options name, in paper order.
func selected(opt Options) ([]synth.Profile, error) {
	all := synth.Profiles()
	if opt.Benchmarks == nil {
		return all, nil
	}
	want := map[string]bool{}
	for _, n := range opt.Benchmarks {
		want[n] = true
	}
	var out []synth.Profile
	for _, p := range all {
		if want[p.Name] {
			out = append(out, p)
			delete(want, p.Name)
		}
	}
	if len(want) > 0 {
		var missing []string
		for n := range want {
			missing = append(missing, n)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("experiments: unknown benchmarks %v", missing)
	}
	return out, nil
}

// buildAll returns the selected benchmarks from the process's bench memo.
func buildAll(opt Options) ([]*synth.Bench, error) {
	profs, err := selected(opt)
	if err != nil {
		return nil, err
	}
	return mapCells(opt, len(profs), func(_, i int) (*synth.Bench, error) {
		return benchFor(profs[i])
	})
}

// check rejects options no run can honour: an instruction budget that is
// not positive or whose stream limit overflows, and a negative audit rate.
// benchRows, whose walks are not simulations, meets it here, so a builder
// that runs no cell (Table 2) refuses them too; simulation cells meet the
// same rules in JobSpec.Validate, which runCellsFull calls on every spec.
func (opt Options) check() error {
	if _, err := trace.BudgetLimit(opt.Insts); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if opt.AuditSample < 0 {
		return fmt.Errorf("experiments: negative audit sample %d", opt.AuditSample)
	}
	return nil
}

// builtBench is one bench memo entry, built once under its own sync.Once
// so that pool workers build different profiles concurrently and no build
// holds the memo's lock. Build is deterministic, so its error is memoized
// too.
type builtBench struct {
	once  sync.Once
	bench *synth.Bench
	err   error
}

// benchMemo is the process-wide bench memo, keyed by the whole Profile so
// that two profiles sharing a name never share a bench.
var benchMemo = struct {
	mu sync.Mutex
	m  map[synth.Profile]*builtBench
}{m: map[synth.Profile]*builtBench{}}

// benchFor returns the bench profile p builds, building it on first use.
// Every builder and every JobRunner in the process shares the result: a
// bench is a pure function of its Profile and read-only once built, so
// sharing it is behaviour-neutral, and building it is set-up rather than
// simulation. Reordered layouts and kernels are not built from a profile
// and never enter the memo.
func benchFor(p synth.Profile) (*synth.Bench, error) {
	benchMemo.mu.Lock()
	e := benchMemo.m[p]
	if e == nil {
		e = &builtBench{}
		benchMemo.m[p] = e
	}
	benchMemo.mu.Unlock()
	e.once.Do(func() { e.bench, e.err = synth.Build(p) })
	return e.bench, e.err
}
