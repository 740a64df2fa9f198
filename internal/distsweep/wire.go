// Package distsweep executes sweep work-lists across process boundaries: a
// coordinator partitions serializable job specs into batches, POSTs them to
// long-running sweepworker daemons over HTTP/JSON, and reduces the returned
// results in canonical work-list order, so rendered artifacts are
// byte-identical to an in-process run at any worker and process count.
//
// The package deliberately knows nothing about internal/experiments: it
// ships JobSpecs and runs them through a pluggable Runner, and the
// experiments package supplies both the specs (a sweep cell's recipe is its
// JobSpec) and the Runner (specs → simulate). That keeps the dependency arrow pointing
// one way — experiments imports distsweep, never the reverse.
package distsweep

import (
	"fmt"

	"specfetch/internal/adaptive"
	"specfetch/internal/bpred"
	"specfetch/internal/core"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// WireVersion is the protocol version stamped on every Batch and
// BatchResult. A worker rejects batches from a different version with HTTP
// 400, and the coordinator rejects mismatched results, so mixed-version
// fleets fail loudly instead of computing subtly different sweeps.
const WireVersion = 1

// WireConfig is a core.Config on the wire: its json tags are the encoding,
// and the fields tagged "-" never cross. Probe, Chooser and Arena are
// in-process state, and MaxInsts travels as JobSpec.Insts, the same
// per-sweep instruction budget the in-process executor stamps onto every
// cell. JobSpec.Validate refuses a config that carries a probe, a
// constructed chooser or an arena.
type WireConfig struct {
	core.Config
}

// FromConfig wraps a core.Config for the wire, with MaxInsts and Arena
// cleared. It fails when the config carries in-process-only state (a probe
// or a constructed chooser): such cells must not be dispatched remotely,
// because the probe would silently not fire on the worker.
func FromConfig(c core.Config) (WireConfig, error) {
	if c.Probe != nil {
		return WireConfig{}, fmt.Errorf("distsweep: config carries a Probe; not serializable")
	}
	if c.Chooser != nil {
		return WireConfig{}, fmt.Errorf("distsweep: config carries a constructed Chooser; " +
			"ship AdaptStrategy and let the worker rebuild it")
	}
	c.MaxInsts = 0
	c.Arena = nil
	return WireConfig{c}, nil
}

// ToConfig returns the wrapped core.Config (probe-free, MaxInsts unset — the
// runner stamps the budget from JobSpec.Insts, mirroring the in-process
// executor).
func (w WireConfig) ToConfig() core.Config { return w.Config }

// JobSpec is one serializable sweep cell: the bench recipe (synth.Build of
// the profile regenerates the identical program and image on any machine,
// so only a bench Build made ships this way; see synth.Bench.FromProfile),
// the machine configuration, the dynamic-stream seed, the predictor kind,
// the instruction budget, and the audit sampling rate the worker must
// attach.
//
// CaptureWindows is the interval-analytics opt-in, added to wire v1
// additively (omitempty; absent decodes to false, so old and new peers
// interoperate): when set, the worker attaches an obs.WindowSeries to the
// run — window capture crosses the wire as this flag rather than as a
// probe, which keeps the cell serializable — and returns the records in
// JobResult.WindowSeries. It requires a positive Config.SampleInterval.
type JobSpec struct {
	Profile        synth.Profile `json:"profile"`
	Config         WireConfig    `json:"config"`
	Seed           uint64        `json:"seed"`
	Insts          int64         `json:"insts"`
	Pred           string        `json:"pred,omitempty"`
	AuditSample    int           `json:"audit_sample,omitempty"`
	CaptureWindows bool          `json:"capture_windows,omitempty"`
}

// Validate rejects specs a worker could not run: bad profiles, bad
// configs, configs carrying in-process state (a Probe, a Chooser or an
// Arena), unknown predictor kinds, budgets that are not positive or whose
// stream limit overflows. Workers validate before running so malformed
// specs come back as permanent (4xx) errors instead of burning retries;
// the in-process executor validates the same specs before any cell runs,
// so a spec fails alike in either place.
func (s JobSpec) Validate() error {
	if s.Config.Probe != nil || s.Config.Chooser != nil || s.Config.Arena != nil {
		return fmt.Errorf("distsweep: config carries in-process state (probe, chooser or arena)")
	}
	if err := s.Profile.Validate(); err != nil {
		return err
	}
	cfg := s.Config.ToConfig()
	cfg.MaxInsts = s.Insts
	if err := cfg.Validate(); err != nil {
		return err
	}
	if _, err := bpred.ByName(s.Pred); err != nil {
		return err
	}
	if _, err := trace.BudgetLimit(s.Insts); err != nil {
		return fmt.Errorf("distsweep: %w", err)
	}
	if s.AuditSample < 0 {
		return fmt.Errorf("distsweep: negative audit sample %d", s.AuditSample)
	}
	if s.CaptureWindows && s.Config.SampleInterval <= 0 {
		return fmt.Errorf("distsweep: capture_windows requires a positive sample_interval")
	}
	if s.Config.Policy == core.Adaptive {
		// The worker will rebuild the chooser from the strategy name, so an
		// unknown name must fail here as a permanent error, not mid-batch.
		if _, err := adaptive.New(s.Config.AdaptStrategy, 0); err != nil {
			return err
		}
	} else if s.Config.AdaptStrategy != "" {
		return fmt.Errorf("distsweep: adapt_strategy %q on non-adaptive policy %v",
			s.Config.AdaptStrategy, s.Config.Policy)
	}
	return nil
}

// Batch is the unit of dispatch: a contiguous slice of the sweep
// work-list. ID is coordinator-assigned and echoed back so a late response
// from a timed-out attempt can never be mistaken for the retry's.
//
// Older coordinators also sent "campaign" and "attempt" keys (omitempty
// log context); a worker's decode ignores unknown keys, so they are still
// served.
type Batch struct {
	Version int       `json:"version"`
	ID      uint64    `json:"id"`
	Jobs    []JobSpec `json:"jobs"`
}

// JobResult pairs a simulation result with the worker's audit self-check:
// the AuditFinal its sampled obs.AuditProbe verified against the run. The
// coordinator recomputes Result.AuditFinal() and rejects the batch if the
// two disagree — a worker cannot claim an audit it did not pass.
//
// WindowSeries carries the job's interval window records when the spec set
// CaptureWindows, added to wire v1 additively (omitempty; absent decodes to
// nil): the coordinator checks it against the Result (SelfConsistent), the
// reducer hands it to the caller untouched, and specs that do not capture
// windows encode exactly as before. Result.MissBits is additive the same
// way: only a spec whose config sets RecordMisses gets a bitmap back, and
// SelfConsistent checks it against the Result's reference counts.
type JobResult struct {
	Result       core.Result        `json:"result"`
	Audit        obs.AuditFinal     `json:"audit"`
	WindowSeries []obs.WindowRecord `json:"window_series,omitempty"`
}

// SelfConsistent reports whether the result's own counters rebuild the
// audit identity the worker claims to have verified, whether its miss
// bitmap is one a run of spec could have recorded (absent unless the spec
// records misses, and otherwise valid by Result.MissBitsValid), and
// whether its window series is the one a run of spec could have cut:
// absent unless the spec captures windows, and otherwise a series that
// passes obs.CheckSeries, tiles the run from instruction 0 to Result.Insts
// and Result.Cycles, and sums to the run's lost slots and right-path
// accesses and misses.
func (r JobResult) SelfConsistent(spec JobSpec) bool {
	if r.Result.AuditFinal() != r.Audit {
		return false
	}
	if spec.Config.RecordMisses {
		if !r.Result.MissBitsValid() {
			return false
		}
	} else if len(r.Result.MissBits) > 0 {
		return false
	}
	ws := r.WindowSeries
	if !spec.CaptureWindows {
		return len(ws) == 0
	}
	if len(ws) == 0 {
		return r.Result.Insts == 0
	}
	if obs.CheckSeries(ws) != nil || ws[0].StartInsts != 0 || ws[0].StartCycle != 0 {
		return false
	}
	last := ws[len(ws)-1]
	if last.EndInsts != r.Result.Insts || last.EndCycle != r.Result.Cycles.Int64() {
		return false
	}
	var sum obs.WindowRecord
	for _, w := range ws {
		for c, l := range w.Lost {
			sum.Lost[c] += l
		}
		sum.Accesses += w.Accesses
		sum.Misses += w.Misses
	}
	for c, l := range r.Result.Lost {
		if sum.Lost[c] != l.Int64() {
			return false
		}
	}
	return sum.Accesses == r.Result.RightPathAccesses && sum.Misses == r.Result.RightPathMisses
}

// WireSpan is one job's execution timing on the worker's own monotonic
// clock: StartUS is the offset from the start of batch execution, DurUS the
// job's duration, both in microseconds. Offsets rather than absolute times
// cross the wire because the two processes share no clock; the coordinator
// re-anchors each span onto its own hosttime axis using the dispatch
// round-trip (see Coordinator.FleetSpans).
type WireSpan struct {
	Job     int    `json:"job"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// BatchResult echoes the batch ID and carries one JobResult per job, in
// job order.
//
// Pid, ExecUS, and Spans are the worker's telemetry sidecar, added to wire
// v1 additively (omitempty): the worker process id keys fleet trace tracks,
// ExecUS is the total batch execution time on the worker's clock, and Spans
// carries per-job timings. All three are advisory — the reducer never reads
// them, so they cannot perturb rendered artifact bytes.
type BatchResult struct {
	Version int         `json:"version"`
	ID      uint64      `json:"id"`
	Pid     int         `json:"pid,omitempty"`
	ExecUS  int64       `json:"exec_us,omitempty"`
	Spans   []WireSpan  `json:"spans,omitempty"`
	Results []JobResult `json:"results"`
}

// ErrorBody is the JSON body of a non-200 worker response. Job is the
// index of the failing job within the batch (-1 when the batch itself was
// unusable).
type ErrorBody struct {
	Error string `json:"error"`
	Job   int    `json:"job"`
}
