package experiments

import (
	"sync"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
)

// The coordinator half of distributed sweeps. Cells convert to wire
// JobSpecs, runCells dispatches whole work-lists in batches, and the
// worker side (JobRunner, used by cmd/sweepworker) runs specs through the
// identical simulateCell path, so a remote sweep computes cell-for-cell
// the same results — and therefore renders the same bytes — as an
// in-process one.

// specForCell converts one cell to its wire form. ok is false when the
// cell carries in-process-only state (a probe or access callback) or its
// bench is not the one its profile rebuilds, and must run locally.
func specForCell(opt Options, c runCell) (distsweep.JobSpec, bool) {
	if !c.bench.FromProfile() {
		return distsweep.JobSpec{}, false
	}
	cfg := c.cfg
	// Resolve the engine mode here so a pinned sweep stays pinned across
	// the wire: the worker runs whatever mode the coordinator resolved, not
	// its own environment default.
	cfg.StepMode = opt.stepMode()
	// The sampling interval travels inside the wire config (it is part of
	// the machine configuration); window capture travels as a JobSpec flag,
	// so a capturing cell stays probe-free and serializable.
	if opt.SampleInterval > 0 {
		cfg.SampleInterval = opt.SampleInterval
	}
	wc, err := distsweep.FromConfig(cfg)
	if err != nil {
		return distsweep.JobSpec{}, false
	}
	return distsweep.JobSpec{
		Profile:        c.bench.Profile(),
		Config:         wc,
		Seed:           c.seed,
		Insts:          opt.Insts,
		Pred:           c.pred,
		AuditSample:    opt.AuditSample,
		CaptureWindows: opt.CaptureWindows,
	}, true
}

// runCellsRemote dispatches a work-list through the coordinator. ok is
// false (and the caller runs everything in-process) when any cell is not
// serializable — mixed dispatch would complicate reasoning for no gain,
// since only probe-carrying sweeps, Table 4 and the layout ablation are
// affected. Results come back keyed
// by cell index, so the caller's serial canonical-order reduction is
// untouched: remote bytes are in-process bytes.
func runCellsRemote(opt Options, cells []runCell) ([]cellOut, bool, error) {
	specs := make([]distsweep.JobSpec, len(cells))
	for i, c := range cells {
		s, ok := specForCell(opt, c)
		if !ok {
			return nil, false, nil
		}
		specs[i] = s
	}
	// Batches the fleet cannot complete run on the in-process pool via the
	// normal local path (which also reports progress and wraps errors with
	// the same bench/policy prefix a purely local sweep would use).
	local := func(offset int, jobs []distsweep.JobSpec) ([]distsweep.JobResult, error) {
		res, err := runCellsLocal(opt, cells[offset:offset+len(jobs)])
		if err != nil {
			return nil, err
		}
		out := make([]distsweep.JobResult, len(res))
		for i, r := range res {
			out[i] = distsweep.JobResult{Result: r.res, Audit: r.res.AuditFinal(), WindowSeries: r.windows}
		}
		return out, nil
	}
	// Remotely-completed cells stream progress as their batches verify;
	// locally-run cells already report inside simulateCell.
	onRemote := func(offset int, res []distsweep.JobResult) {
		for i, r := range res {
			c := cells[offset+i]
			opt.observe(c.bench.Profile().Name, c.cfg.Policy, r.Result)
		}
	}
	jrs, err := opt.Dispatch.Run(specs, local, onRemote)
	if err != nil {
		return nil, true, err
	}
	out := make([]cellOut, len(jrs))
	for i, r := range jrs {
		out[i] = cellOut{res: r.Result, windows: r.WindowSeries}
	}
	return out, true, nil
}

// JobRunner is the worker-side distsweep.Runner: it rebuilds the bench
// from the spec's profile (memoized — a sweep sends the same profile once
// per cell) and runs the cell through simulateCell, the same code path
// the in-process executor uses, with the spec's sampled audit attached.
//
// It gives worker cells the pool's two reuses. A sweep sends every cell
// of one stream (policies × penalties × cache sizes) in a row, so the
// runner memoizes the stream each Run reads and replays it to the next
// cell on that stream; and each concurrent Run borrows an engine arena
// from a free list. Between batches it retains one packed stream and one
// arena per batch that ran concurrently.
type JobRunner struct {
	// Metrics, when non-nil, accumulates the worker's campaign counters
	// (specfetch_simulations_total etc.).
	Metrics *obs.Registry
	// Progress, when non-nil, receives per-simulation progress lines.
	Progress func(msg string)

	mu      sync.Mutex
	benches map[synth.Profile]*synth.Bench
	// streams holds the stream of every in-flight Run plus last, the most
	// recently released one; any other is dropped when its last reader
	// finishes.
	streams map[traceKey]*workerStream
	last    *workerStream
	// arenas is the free list of engine arenas. It is not a sync.Pool,
	// which would drop them at every GC.
	arenas []*core.Arena
}

// workerStream is a memoized stream and the number of Runs reading it.
type workerStream struct {
	sharedTrace
	readers int
}

// NewJobRunner builds a worker-side runner.
func NewJobRunner(reg *obs.Registry) *JobRunner {
	return &JobRunner{
		Metrics: reg,
		benches: map[synth.Profile]*synth.Bench{},
		streams: map[traceKey]*workerStream{},
	}
}

// bench returns the (memoized) built benchmark for a profile.
func (r *JobRunner) bench(p synth.Profile) (*synth.Bench, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.benches[p]; ok {
		return b, nil
	}
	b, err := synth.Build(p)
	if err != nil {
		return nil, err
	}
	r.benches[p] = b
	return b, nil
}

// acquire registers a reader of stream k and borrows an arena. The stream
// is generated later, under its own sync.Once, so a walk never holds mu.
func (r *JobRunner) acquire(k traceKey) (*workerStream, *core.Arena) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.streams[k]
	if s == nil {
		s = &workerStream{sharedTrace: sharedTrace{key: k}}
		r.streams[k] = s
	}
	s.readers++
	if n := len(r.arenas); n > 0 {
		a := r.arenas[n-1]
		r.arenas = r.arenas[:n-1]
		return s, a
	}
	return s, core.NewArena()
}

// release returns what acquire handed out. A stream whose last reader
// finishes becomes the retained one, dropping the one retained before it
// unless a Run is reading that again.
func (r *JobRunner) release(s *workerStream, a *core.Arena) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arenas = append(r.arenas, a)
	if s.readers--; s.readers > 0 {
		return
	}
	if old := r.last; old != nil && old != s && old.readers == 0 {
		delete(r.streams, old.key)
	}
	r.last = s
}

// specCell is the cell and options a spec runs as on bench b.
func specCell(spec distsweep.JobSpec, b *synth.Bench) (runCell, Options) {
	cell := runCell{bench: b, cfg: spec.Config.ToConfig(), seed: spec.Seed, pred: spec.Pred}
	return cell, Options{
		Insts:       spec.Insts,
		AuditSample: spec.AuditSample,
		// The wire config carries the coordinator-resolved step mode;
		// threading it through Options keeps simulateCell's stamp from
		// replacing it with this worker's environment default.
		StepMode: cell.cfg.StepMode,
		// Window capture crosses the wire as a spec flag (the sampling
		// interval is already inside the wire config).
		CaptureWindows: spec.CaptureWindows,
	}
}

// Run implements distsweep.Runner. Safe for concurrent batches: benches
// are built under a lock and read-only afterwards, exactly as the
// in-process pool shares them across workers, and concurrent Runs never
// share an arena.
func (r *JobRunner) Run(spec distsweep.JobSpec) (distsweep.JobResult, error) {
	if err := spec.Validate(); err != nil {
		return distsweep.JobResult{}, err
	}
	b, err := r.bench(spec.Profile)
	if err != nil {
		return distsweep.JobResult{}, err
	}
	cell, opt := specCell(spec, b)
	opt.Metrics, opt.Progress = r.Metrics, r.Progress
	s, arena := r.acquire(cellTraceKey(cell, opt))
	defer r.release(s, arena)
	res, wins, err := simulateCell(cell, opt, s.reader(), arena)
	if err != nil {
		return distsweep.JobResult{}, err
	}
	return distsweep.JobResult{Result: res, Audit: res.AuditFinal(), WindowSeries: wins}, nil
}
