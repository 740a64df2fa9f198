package experiments

import (
	"sync"

	"specfetch/internal/distsweep"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
)

// The coordinator half of distributed sweeps. Cells convert to wire
// JobSpecs, runCells dispatches whole work-lists in batches, and the
// worker side (JobRunner, used by cmd/sweepworker) turns each spec back
// into a cell and runs it through the identical cellCache path, so a
// remote sweep computes cell-for-cell the same results — and therefore
// renders the same bytes — as an in-process one.

// specForCell converts one cell to its wire form. ok is false when the
// cell carries in-process-only state (a probe or access callback) or its
// bench is not the one its profile rebuilds, and must run locally.
func specForCell(opt Options, c runCell) (distsweep.JobSpec, bool) {
	if !c.bench.FromProfile() {
		return distsweep.JobSpec{}, false
	}
	// The step mode runCellsFull resolved and the sampling interval travel
	// inside the wire config; window capture travels as a JobSpec flag, so
	// a capturing cell stays probe-free and serializable.
	wc, err := distsweep.FromConfig(c.cfg)
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
		CaptureWindows: c.capture,
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
// per cell) and runs the spec's cell through a cellCache it keeps for its
// lifetime, the same path the in-process pool runs cells through. A sweep
// sends every cell of one stream in a row, so the cache replays each
// stream to the cells after its first, and between batches it retains one
// packed stream and one arena per batch that ran concurrently.
type JobRunner struct {
	// Metrics, when non-nil, accumulates the worker's campaign counters
	// (specfetch_simulations_total etc.).
	Metrics *obs.Registry
	// Progress, when non-nil, receives per-simulation progress lines.
	Progress func(msg string)

	mu      sync.Mutex
	benches map[synth.Profile]*synth.Bench
	cache   cellCache
}

// NewJobRunner builds a worker-side runner.
func NewJobRunner(reg *obs.Registry) *JobRunner {
	return &JobRunner{Metrics: reg, benches: map[synth.Profile]*synth.Bench{}}
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

// specCell is the cell and options a spec runs as on bench b. The wire
// config carries the step mode and sampling interval the coordinator
// resolved, and window capture crosses as a spec flag.
func specCell(spec distsweep.JobSpec, b *synth.Bench) (runCell, Options) {
	cell := runCell{bench: b, cfg: spec.Config.ToConfig(), seed: spec.Seed, pred: spec.Pred,
		capture: spec.CaptureWindows}
	return cell, Options{Insts: spec.Insts, AuditSample: spec.AuditSample}
}

// Run implements distsweep.Runner. Safe for concurrent batches: benches
// are built under a lock and read-only afterwards, exactly as the
// in-process pool shares them across workers, and the cache never lends
// one arena to two Runs at once.
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
	out, err := r.cache.simulate(cell, opt)
	if err != nil {
		return distsweep.JobResult{}, err
	}
	return distsweep.JobResult{Result: out.res, Audit: out.res.AuditFinal(), WindowSeries: out.windows}, nil
}
