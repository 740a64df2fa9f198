package experiments

import (
	"specfetch/internal/distsweep"
	"specfetch/internal/obs"
)

// The coordinator half of distributed sweeps. A cell's recipe is already
// its wire JobSpec and its result the wire JobResult, so runCellsFull
// dispatches whole work-lists in batches without converting either way,
// and the worker side (JobRunner, used by cmd/sweepworker) pairs each spec
// with its bench and runs it through the identical cellCache path, so a
// remote sweep computes cell-for-cell the same results — and therefore
// renders the same bytes — as an in-process one.

// runCellsRemote dispatches a work-list of validated cells through the
// coordinator. ok is false (and the caller runs everything in-process)
// when any cell's bench is not the one its profile rebuilds (the layout
// ablation's reordered benches) — mixed dispatch would complicate
// reasoning for no gain. Results come back keyed by cell index, so the
// caller's serial canonical-order reduction is untouched: remote bytes are
// in-process bytes.
func runCellsRemote(opt Options, cells []runCell) ([]distsweep.JobResult, bool, error) {
	specs := make([]distsweep.JobSpec, len(cells))
	for i, c := range cells {
		if !c.bench.FromProfile() {
			return nil, false, nil
		}
		specs[i] = c.spec
	}
	// Batches the fleet cannot complete run on the in-process pool via the
	// normal local path (which also reports progress and wraps errors with
	// the same bench/policy prefix a purely local sweep would use).
	local := func(offset int, jobs []distsweep.JobSpec) ([]distsweep.JobResult, error) {
		return runCellsLocal(opt, cells[offset:offset+len(jobs)])
	}
	// Remotely-completed cells stream progress as their batches verify;
	// locally-run cells already report inside simulateCell.
	onRemote := func(offset int, res []distsweep.JobResult) {
		for i, r := range res {
			c := cells[offset+i]
			opt.observe(c.bench.Profile().Name, c.spec.Config.Policy, r.Result)
		}
	}
	out, err := opt.Dispatch.Run(specs, local, onRemote)
	return out, true, err
}

// JobRunner is the worker-side distsweep.Runner: it takes the bench of the
// spec's profile from the process-wide bench memo (benchFor), which it
// shares with the in-process pool, and runs the spec's cell through a
// cellCache it keeps for its lifetime, the same path the in-process pool
// runs cells through. A sweep sends every cell of one stream in a row, so
// the cache replays each stream to the cells after its first (the server's
// lanes share its one generation), and between batches it retains one
// packed stream and one arena per Run that ran at once: one per lane of
// each concurrent batch. The chunks of the streams it drops stay with it
// as spares, so once warm it packs each new stream without allocating, up
// to the size of the largest it has held.
type JobRunner struct {
	// Metrics, when non-nil, accumulates the worker's campaign counters
	// (specfetch_simulations_total etc.).
	Metrics *obs.Registry
	// Progress, when non-nil, receives per-simulation progress lines.
	Progress func(msg string)

	cache cellCache
}

// NewJobRunner builds a worker-side runner.
func NewJobRunner(reg *obs.Registry) *JobRunner {
	return &JobRunner{Metrics: reg}
}

// Run implements distsweep.Runner. Safe for concurrent use, by the lanes
// of one batch and by concurrent batches: each bench is built once and
// read-only afterwards, exactly as the in-process pool shares it across
// workers, and the cache never lends one arena to two Runs at once.
func (r *JobRunner) Run(spec distsweep.JobSpec) (distsweep.JobResult, error) {
	if err := spec.Validate(); err != nil {
		return distsweep.JobResult{}, err
	}
	b, err := benchFor(spec.Profile)
	if err != nil {
		return distsweep.JobResult{}, err
	}
	return r.cache.simulate(runCell{b, spec}, Options{Metrics: r.Metrics, Progress: r.Progress})
}
