package experiments

import (
	"fmt"
	"runtime"
	"slices"

	"specfetch/internal/adaptive"
	"specfetch/internal/bpred"
	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/obs"
	"specfetch/internal/pool"
	"specfetch/internal/program"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// The sweep executor. Every table, figure, and study in this package is the
// same shape: an explicit work-list of independent cells (one benchmark
// simulated under one configuration), executed on a bounded worker pool, then
// reduced serially in work-list order. Because cell i's result lands in slot
// i and the reduction never looks at completion order, rendered artifacts are
// byte-identical to a serial run regardless of scheduling.

// workers resolves Options.Workers: 0 means GOMAXPROCS, anything below 1
// after that means serial.
func (opt Options) workers() int {
	w := opt.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// mapCells runs fn over [0,n) on opt.workers() lanes of the shared pool
// (pool.Run: cells dispatched in index order, the lowest-indexed failure
// reported, a cell's panic re-raised here) and returns the index-keyed
// results — the deterministic reduction every builder hangs off. fn's first
// argument is the pool lane running the cell, the host span tracer's
// timeline track.
func mapCells[T any](opt Options, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := pool.Run(opt.workers(), n, func(w, i int) error {
		v, err := fn(w, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// benchRows evaluates fn once per benchmark on the pool, preserving bench
// order: the per-bench work that is not a simulation (trace scans, the
// layout ablation's profiling walks), which walks opt.Insts instructions
// once Options.check accepts them. Simulations go through sweep, never
// from inside fn. Each row is wrapped in one host span ("<bench>/row").
func benchRows[T any](opt Options, benches []*synth.Bench, fn func(b *synth.Bench) (T, error)) ([]T, error) {
	if err := opt.check(); err != nil {
		return nil, err
	}
	return mapCells(opt, len(benches), func(w, i int) (T, error) {
		sp := opt.Spans.Start(benches[i].Profile().Name+"/row", w)
		v, err := fn(benches[i])
		spanEnd(opt, sp)
		return v, err
	})
}

// runCell is one independent unit of sweep work: one benchmark simulated
// under one configuration over one dynamic stream. Its recipe is the wire
// JobSpec itself, so a local cell and a remote one cannot drift apart;
// bench is the spec's profile already built (or, for the layout ablation,
// a reordered bench that only runs in process).
type runCell struct {
	bench *synth.Bench
	spec  distsweep.JobSpec
}

// newCell builds a cell on the experiments' shared stream seed. Builders
// then set spec.Pred, spec.Seed or spec.CaptureWindows where they vary;
// runCellsFull fills in the step mode, budget and audit rate.
func newCell(b *synth.Bench, cfg core.Config) runCell {
	return runCell{bench: b, spec: distsweep.JobSpec{
		Profile: b.Profile(),
		Config:  distsweep.WireConfig{Config: cfg},
		Seed:    defaultStreamSeed,
	}}
}

// sweep is the one entry point of every simulating builder. It simulates
// cellsOf(i, benches[i]) for every bench as one bench-major work-list and
// returns rowOf(i, benches[i], outs) per bench, where outs are that bench's
// results in cellsOf order. The first rowOf error is returned.
func sweep[T any](opt Options, benches []*synth.Bench,
	cellsOf func(i int, b *synth.Bench) []runCell,
	rowOf func(i int, b *synth.Bench, outs []distsweep.JobResult) (T, error)) ([]T, error) {
	var cells []runCell
	ends := make([]int, len(benches))
	for i, b := range benches {
		cells = append(cells, cellsOf(i, b)...)
		ends[i] = len(cells)
	}
	outs, err := runCellsFull(opt, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]T, len(benches))
	start := 0
	for i, b := range benches {
		if rows[i], err = rowOf(i, b, outs[start:ends[i]:ends[i]]); err != nil {
			return nil, err
		}
		start = ends[i]
	}
	return rows, nil
}

// runCellsFull executes a work-list and returns results keyed by cell
// index. It writes the sweep's engine mode, budget and audit rate into a
// copy of every cell's spec and validates each spec before any cell runs,
// so a local or remote cell runs Options.StepMode, and a setting a worker
// would refuse fails the same way in process. With a remote fleet configured
// (Options.Dispatch) and every cell serializable, the list is dispatched
// across processes; otherwise — and for any batch the fleet cannot
// complete — it runs on the in-process pool. Either way results land at
// their cell's index, so the caller's serial reduction renders identical
// bytes.
func runCellsFull(opt Options, cells []runCell) ([]distsweep.JobResult, error) {
	cells = slices.Clone(cells)
	for i := range cells {
		s := &cells[i].spec
		s.Config.StepMode = opt.StepMode
		s.Insts = opt.Insts
		s.AuditSample = opt.AuditSample
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	if opt.Dispatch != nil {
		if res, ok, err := runCellsRemote(opt, cells); ok {
			return res, err
		}
	}
	return runCellsLocal(opt, cells)
}

// runCellsLocal executes a work-list on the in-process pool, every cell
// through one cellCache built for the call: each stream is generated once
// and replayed to its cells, and concurrent cells borrow engine arenas
// instead of reallocating queue and cache storage. With host tracing
// enabled (Options.Spans), every cell is wrapped in a span named
// "<bench>/<policy>" on the worker that ran it.
func runCellsLocal(opt Options, cells []runCell) ([]distsweep.JobResult, error) {
	var cache cellCache
	return mapCells(opt, len(cells), func(w, i int) (distsweep.JobResult, error) {
		name, pol := cells[i].bench.Profile().Name, cells[i].spec.Config.Policy
		sp := opt.Spans.Start(name+"/"+pol.String(), w)
		out, err := cache.simulate(cells[i], opt)
		spanEnd(opt, sp)
		if err != nil {
			return distsweep.JobResult{}, fmt.Errorf("%s/%s: %w", name, pol, err)
		}
		return out, nil
	})
}

// spanEnd completes a host span and feeds its latency into the campaign
// metrics histogram. Host timing is observe-only: nothing here touches
// simulated state, so sweep bytes are identical with tracing on or off.
func spanEnd(opt Options, sp obs.SpanHandle) {
	span, ok := sp.End()
	if !ok {
		return
	}
	if opt.Metrics != nil {
		opt.Metrics.Histogram("specfetch_cell_seconds",
			"Host wall time per sweep work unit (simulation cell or bench row).").
			Observe(span.Dur.Seconds())
	}
}

// simulateCell runs one validated cell in-process through RunSpec, reports
// the finished run to sinks, the progress and metrics sinks, and returns it
// as the wire result a sweep worker would send back.
//
// cellCache.simulate threads the reuses in: rd, when non-nil, is a replay
// cursor over the cell's memoized stream; arena, when non-nil, donates
// storage from earlier cells. Both are behaviour-neutral; nil for either
// walks the stream or allocates fresh storage.
func simulateCell(c runCell, sinks Options, rd trace.Reader, arena *core.Arena) (distsweep.JobResult, error) {
	if rd == nil {
		rd = c.bench.NewReader(c.spec.Seed, traceLimit(c.spec.Insts))
	}
	res, wins, err := RunSpec(c.spec, c.bench.Image(), rd, arena, nil)
	if err != nil {
		return distsweep.JobResult{}, err
	}
	sinks.observe(c.bench.Profile().Name, c.spec.Config.Policy, res)
	return distsweep.JobResult{Result: res, Audit: res.AuditFinal(), WindowSeries: wins}, nil
}

// RunSpec runs spec over img and rd with a fresh engine, cache and
// predictor: the one run path of a sweep cell, on the pool and on a sweep
// worker, and of a fetchsim run. It refuses a spec ValidateRun rejects;
// the profile and the stream limit are the caller's, who picked img and
// rd. It builds the in-process state from the spec: an adaptive run's
// chooser from its strategy name; with CaptureWindows a sample-only
// obs.WindowSeries, whose records come back as the second return and
// which keeps the engine's bulk path enabled; with a positive AuditSample
// a sampled obs.AuditProbe, whose stream violations panic with an
// *obs.AuditError and whose final identities are verified before the
// result returns. extra, when non-nil, is one more probe attached first,
// such as fetchsim's event recorder; arena, when non-nil, donates storage.
func RunSpec(spec distsweep.JobSpec, img *program.Image, rd trace.Reader, arena *core.Arena, extra obs.Probe) (core.Result, []obs.WindowRecord, error) {
	if err := spec.ValidateRun(); err != nil {
		return core.Result{}, nil, err
	}
	cfg := spec.Config.ToConfig()
	cfg.MaxInsts = spec.Insts
	cfg.Arena = arena
	if cfg.Policy == core.Adaptive {
		ch, err := adaptive.New(cfg.AdaptStrategy, 0)
		if err != nil {
			return core.Result{}, nil, err
		}
		cfg.Chooser = ch
	}
	probes := []obs.Probe{extra}
	var win *obs.WindowSeries
	if spec.CaptureWindows {
		win = obs.NewWindowSeries()
		probes = append(probes, win)
	}
	var aud *obs.AuditProbe
	if spec.AuditSample > 0 {
		aud = obs.NewAuditProbe(obs.AuditOptions{
			Width:           cfg.FetchWidth,
			AllowBusOverlap: cfg.PipelinedMemory,
			SampleEvery:     spec.AuditSample,
		})
		probes = append(probes, aud)
	}
	cfg.Probe = obs.Multi(probes...)
	mk, err := bpred.ByName(spec.Pred)
	if err != nil {
		return core.Result{}, nil, err
	}
	res, err := core.Run(cfg, img, rd, mk())
	if err != nil {
		return res, nil, err
	}
	if aud != nil {
		if verr := aud.Verify(res.AuditFinal()); verr != nil {
			return res, nil, verr
		}
	}
	var wins []obs.WindowRecord
	if win != nil {
		wins = win.Records()
	}
	return res, wins, nil
}
