package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"specfetch/internal/adaptive"
	"specfetch/internal/bpred"
	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/obs"
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

// cellFailure records the lowest-indexed cell that errored or panicked.
type cellFailure struct {
	idx     int
	err     error
	payload any
	isPanic bool
}

// pool runs fn(worker, i) for i in [0,n) on up to opt.workers() goroutines;
// worker is the 0-based index of the goroutine running the cell (always 0 on
// the serial path), which the host span tracer uses as its timeline track.
// Cell indexes are dispensed in increasing order; after a cell fails, no new
// cell is started, already-running cells finish, and the pool drains before
// reporting. The failure surfaced is the one with the smallest index — and
// that is deterministic: indexes are handed out in order, so the smallest
// failing index is always dispatched (and therefore observed) no matter how
// the scheduler interleaves the workers. A panicking cell (e.g. an
// *obs.AuditError from a sampled audit) is re-panicked on the caller's
// goroutine with its original value once the pool has drained.
func pool(opt Options, n int, fn func(worker, i int) error) error {
	workers := opt.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		stop atomic.Bool
		mu   sync.Mutex
		fail *cellFailure
	)
	next.Store(-1)
	record := func(f cellFailure) {
		mu.Lock()
		if fail == nil || f.idx < fail.idx {
			fail = &f
		}
		mu.Unlock()
		stop.Store(true)
	}
	runOne := func(w, i int) {
		defer func() {
			if r := recover(); r != nil {
				record(cellFailure{idx: i, payload: r, isPanic: true})
			}
		}()
		if err := fn(w, i); err != nil {
			record(cellFailure{idx: i, err: err})
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				runOne(w, i)
			}
		}(w)
	}
	wg.Wait()
	if fail == nil {
		return nil
	}
	if fail.isPanic {
		panic(fail.payload)
	}
	return fail.err
}

// mapCells runs fn over [0,n) on the pool and returns the index-keyed
// results — the deterministic reduction every builder hangs off. fn's first
// argument is the pool worker index running the cell.
func mapCells[T any](opt Options, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := pool(opt, n, func(w, i int) error {
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
// once checkBudget accepts them. Simulations go through runCells, never
// from inside fn. Each row is wrapped in one host span ("<bench>/row").
func benchRows[T any](opt Options, benches []*synth.Bench, fn func(b *synth.Bench) (T, error)) ([]T, error) {
	if err := checkBudget(opt.Insts); err != nil {
		return nil, err
	}
	return mapCells(opt, len(benches), func(w, i int) (T, error) {
		sp := spanStart(opt, benches[i].Profile().Name+"/row", w)
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

// cellOut pairs one cell's Result with its captured window series (nil
// unless the cell set capture).
type cellOut struct {
	res     core.Result
	windows []obs.WindowRecord
}

// runCells executes a work-list and returns results keyed by cell index.
// With a remote fleet configured (Options.Dispatch) and every cell
// serializable, the list is dispatched across processes; otherwise — and
// for any batch the fleet cannot complete — it runs on the in-process
// pool. Either way results land at their cell's index, so the caller's
// serial reduction renders identical bytes.
func runCells(opt Options, cells []runCell) ([]core.Result, error) {
	full, err := runCellsFull(opt, cells)
	if err != nil {
		return nil, err
	}
	out := make([]core.Result, len(full))
	for i, c := range full {
		out[i] = c.res
	}
	return out, nil
}

// runCellsFull is runCells keeping each cell's window series alongside its
// Result — the executor entry point for the interval-analytics builders.
// It writes the sweep's engine mode, budget and audit rate into a copy of
// every cell's spec and validates each spec before any cell runs, so a
// local or remote cell runs the mode this sweep resolved, never a worker's
// environment default, and a setting a worker would refuse fails the same
// way in process.
func runCellsFull(opt Options, cells []runCell) ([]cellOut, error) {
	mode := opt.stepMode()
	cells = slices.Clone(cells)
	for i := range cells {
		s := &cells[i].spec
		s.Config.StepMode = mode
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
func runCellsLocal(opt Options, cells []runCell) ([]cellOut, error) {
	var cache cellCache
	return mapCells(opt, len(cells), func(w, i int) (cellOut, error) {
		name, pol := cells[i].bench.Profile().Name, cells[i].spec.Config.Policy
		var sp obs.SpanHandle
		if opt.Spans != nil {
			sp = opt.Spans.Start(name+"/"+pol.String(), w)
		}
		out, err := cache.simulate(cells[i], opt)
		spanEnd(opt, sp)
		if err != nil {
			return cellOut{}, fmt.Errorf("%s/%s: %w", name, pol, err)
		}
		return out, nil
	})
}

// spanStart opens a host span when tracing is enabled (nil tracers return
// an inert handle).
func spanStart(opt Options, name string, worker int) obs.SpanHandle {
	return opt.Spans.Start(name, worker)
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

// simulateCell runs one validated cell in-process with a fresh engine,
// cache, and predictor, exactly as its spec says: budget, step mode,
// predictor, stream seed, window capture and audit rate. With a positive
// AuditSample it attaches a sampled obs.AuditProbe to the run: stream
// violations panic (the pool re-surfaces them), and the final accounting
// identities are verified before the result is accepted. sinks supplies
// only the progress and metrics sinks the finished run reports to.
//
// cellCache.simulate threads the reuses in: rd, when non-nil, is a replay
// cursor over the cell's memoized stream; arena, when non-nil, donates
// storage from earlier cells. Both are behaviour-neutral; nil for either
// walks the stream or allocates fresh storage. With CaptureWindows set the
// run carries an obs.WindowSeries and the records come back as the second
// return; a sample-only series attached alone keeps the engine's bulk
// path enabled, so capture costs the interpolated samples and nothing else.
func simulateCell(c runCell, sinks Options, rd trace.Reader, arena *core.Arena) (core.Result, []obs.WindowRecord, error) {
	s := c.spec
	cfg := s.Config.ToConfig()
	cfg.MaxInsts = s.Insts
	cfg.Arena = arena
	if cfg.Policy == core.Adaptive {
		// Specs travel chooser-free (the chooser is in-process-only state);
		// it is built here, just in time, from the serializable strategy
		// name — the same code path on a pool worker and a remote daemon.
		ch, err := adaptive.New(cfg.AdaptStrategy, 0)
		if err != nil {
			return core.Result{}, nil, err
		}
		cfg.Chooser = ch
	}
	var probes []obs.Probe
	var win *obs.WindowSeries
	if s.CaptureWindows {
		win = obs.NewWindowSeries()
		probes = append(probes, win)
	}
	var aud *obs.AuditProbe
	if s.AuditSample > 0 {
		aud = obs.NewAuditProbe(obs.AuditOptions{
			Width:           cfg.FetchWidth,
			AllowBusOverlap: cfg.PipelinedMemory,
			SampleEvery:     s.AuditSample,
		})
		probes = append(probes, aud)
	}
	cfg.Probe = obs.Multi(probes...)
	mk, err := bpred.ByName(s.Pred)
	if err != nil {
		return core.Result{}, nil, err
	}
	pred := mk()
	if rd == nil {
		rd = trace.NewLimitReader(c.bench.NewWalker(s.Seed), traceLimit(s.Insts))
	}
	res, err := core.Run(cfg, c.bench.Image(), rd, pred)
	if err != nil {
		return res, nil, err
	}
	if aud != nil {
		if verr := aud.Verify(res.AuditFinal()); verr != nil {
			return res, nil, verr
		}
	}
	sinks.observe(c.bench.Profile().Name, cfg.Policy, res)
	var wins []obs.WindowRecord
	if win != nil {
		wins = win.Records()
	}
	return res, wins, nil
}
