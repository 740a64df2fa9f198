package core

import (
	"fmt"

	"specfetch/internal/cache"
	"specfetch/internal/obs"
)

// Config parameterizes one simulation run. The zero value is not valid; use
// DefaultConfig as a starting point.
//
// The json tags are the distsweep wire encoding of a cell's machine, so a
// field added here crosses the wire under its own key. Fields tagged "-" are
// in-process only: the probe, constructed state, and MaxInsts, which travels
// as the job's instruction budget.
type Config struct {
	// Policy is the I-cache fetch policy under test.
	Policy Policy `json:"policy"`

	// FetchWidth is the superscalar issue width in instructions per cycle
	// (paper: 4).
	FetchWidth int `json:"fetch_width"`

	// MaxUnresolved is the speculation depth: the number of conditional
	// branches that may be in flight, fetched but not yet resolved
	// (paper: 1, 2, or 4).
	MaxUnresolved int `json:"max_unresolved"`

	// MissPenalty is the I-cache miss / bus occupancy time in cycles
	// (paper: 5 low, 20 high).
	MissPenalty int `json:"miss_penalty"`

	// DecodeLatency is the fetch-to-decode distance in cycles (paper: 2).
	// Misfetches redirect DecodeLatency cycles after the branch fetch.
	DecodeLatency int `json:"decode_latency"`

	// ResolveLatency is the fetch-to-resolve distance for conditional
	// branches in cycles (paper: 4). Mispredicts redirect ResolveLatency
	// cycles after the branch fetch.
	ResolveLatency int `json:"resolve_latency"`

	// ICache sizes the instruction cache (paper: 8K/32K direct mapped,
	// 32-byte lines).
	ICache cache.Config `json:"icache"`

	// NextLinePrefetch enables the paper's "maximal fetchahead,
	// first-time-referenced" next-line prefetcher.
	NextLinePrefetch bool `json:"next_line_prefetch,omitempty"`

	// TargetPrefetch additionally prefetches the target line of fetched
	// branches (computed at decode for direct branches, from the BTB for
	// indirect ones) — the Smith & Hsu target-prefetch scheme; combined
	// with NextLinePrefetch it approximates Pierce & Mudge's wrong-path
	// prefetching. Target prefetches take priority over next-line ones.
	// This is an extension beyond the paper's evaluation.
	TargetPrefetch bool `json:"target_prefetch,omitempty"`

	// StreamDepth, when positive, keeps prefetching sequential lines after
	// each right-path demand fill, up to this many lines ahead (a
	// single-stream approximation of Jouppi's stream buffers, filling
	// through the prefetch buffer). Extension beyond the paper.
	StreamDepth int `json:"stream_depth,omitempty"`

	// PipelinedMemory lifts the single-transfer bus limitation: transfers
	// still take MissPenalty cycles but may overlap, removing all bus
	// contention. Models the paper's "pipelining miss requests" future
	// work. Extension beyond the paper.
	PipelinedMemory bool `json:"pipelined_memory,omitempty"`

	// L2, when non-nil, inserts a unified second-level cache between the
	// I-cache and memory: fills that hit it complete in L2Latency cycles,
	// fills that miss it pay the full MissPenalty (and install the line in
	// the L2). The paper's "small latency (e.g., for an on-chip hierarchy
	// of caches)" is exactly the L2-hit case; this knob makes the
	// hierarchy explicit. Extension beyond the paper.
	L2 *cache.Config `json:"l2,omitempty"`

	// L2Latency is the fill time for an L2 hit; must be positive and at
	// most MissPenalty when L2 is configured.
	L2Latency int `json:"l2_latency,omitempty"`

	// MSHRs, when positive, generalizes the paper's single resume buffer
	// and single prefetch buffer into miss-status holding register files of
	// that many entries each, allowing several wrong-path fills and
	// prefetches to be tracked at once (a simple non-blocking I-cache —
	// the paper's "further study"). 0 keeps the paper's one-of-each.
	MSHRs int `json:"mshrs,omitempty"`

	// RASDepth, when positive, adds a return-address stack of that depth:
	// returns are predicted from the dynamic call nesting instead of the
	// BTB's last-target, eliminating most BTB target mispredicts. The
	// stack is speculatively updated (and corrupted) by wrong-path fetch,
	// as in simple non-checkpointing hardware. Extension beyond the paper.
	RASDepth int `json:"ras_depth,omitempty"`

	// FlushInterval, when positive, invalidates the I-cache every that many
	// correct-path instructions, modelling context switches (the L2, being
	// large and physically shared, is left intact). Extension beyond the
	// paper. 0 disables flushing.
	FlushInterval int64 `json:"flush_interval,omitempty"`

	// MaxInsts stops the run after this many correct-path instructions;
	// 0 means run the whole trace.
	MaxInsts int64 `json:"-"`

	// RecordMisses makes the run return Result.MissBits, the bitmap of
	// which structural correct-path line references missed. The reference
	// sequence is policy independent for a given trace, so the classify
	// package matches two runs' bitmaps to build the paper's Table 4 miss
	// categorization. Recording is behaviour-neutral.
	RecordMisses bool `json:"record_misses,omitempty"`

	// Probe, when non-nil, receives typed instrumentation callbacks as the
	// simulation runs (see internal/obs): fetch cycles, misses, fills, bus
	// occupancy, branch resolves, redirect windows, and stall attribution.
	// Probes observe but never alter simulated behaviour. Nil disables all
	// instrumentation; every engine call site is guarded by a single nil
	// check, so the disabled path costs one predictable branch per hook.
	Probe obs.Probe `json:"-"`

	// SampleInterval, when positive and Probe implements obs.Sampler,
	// delivers a cumulative-counters snapshot to the probe every
	// SampleInterval correct-path instructions and once more at run end
	// (so cumulative series values close exactly on the final Result).
	// 0 disables sampling.
	SampleInterval int64 `json:"sample_interval,omitempty"`

	// StepMode selects the time-advance engine: the next-event skip-ahead
	// core (the zero value, and the default) or the legacy cycle-by-cycle
	// reference stepper. The two are bit-identical — same Result, same
	// probe event stream — which the differential suite proves; keep
	// StepReference around as the executable specification and for
	// debugging the fast core.
	StepMode StepMode `json:"step_mode,omitempty"`

	// AdaptStrategy names the chooser strategy for adaptive runs
	// ("phase:6", "pinned:resume"; see internal/adaptive). It is data, not
	// code, so it crosses the distsweep wire and a remote worker rebuilds
	// the identical chooser. Ignored when a Chooser is attached directly.
	AdaptStrategy string `json:"adapt_strategy,omitempty"`

	// AdaptInterval is the Adaptive meta-policy's decision-window width in
	// correct-path instructions: the chooser re-decides at every multiple.
	// Required (positive) when Policy is Adaptive, ignored otherwise.
	AdaptInterval int64 `json:"adapt_interval,omitempty"`

	// AdaptSeed is read by no strategy: every chooser is deterministic
	// without one. It stays, with its wire key, only because perfbench
	// compiles against it, and goes with the next benchmark change.
	AdaptSeed uint64 `json:"adapt_seed,omitempty"`

	// Chooser is the constructed strategy instance driving the Adaptive
	// policy. In-process-only, like Probe and Arena: it never crosses the
	// distsweep wire (workers rebuild one from AdaptStrategy), and a
	// Chooser must not serve two concurrent engines. Required when
	// Policy is Adaptive and the engine is built directly; the experiments
	// executor, whose cells may not carry one, constructs it from
	// AdaptStrategy.
	Chooser Chooser `json:"-"`

	// Arena, when non-nil, supplies reusable per-run storage (queues, line
	// buffers, cache arrays) so back-to-back runs allocate nothing in the
	// steady state; nil borrows a fresh one for the run. In-process-only,
	// like Probe: it never crosses the
	// distsweep wire, and one Arena must not serve two concurrent engines.
	// Reuse is behaviour-neutral; results are bit-identical either way.
	Arena *Arena `json:"-"`
}

// DefaultConfig returns the paper's baseline machine: 4-wide fetch, depth-4
// speculation, 8K direct-mapped cache, 5-cycle miss penalty, prefetch off.
func DefaultConfig() Config {
	return Config{
		Policy:         Resume,
		FetchWidth:     4,
		MaxUnresolved:  4,
		MissPenalty:    5,
		DecodeLatency:  2,
		ResolveLatency: 4,
		ICache:         cache.DefaultConfig(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Policy < 0 || c.Policy >= numPolicies:
		return fmt.Errorf("core: invalid policy %d", int(c.Policy))
	case c.FetchWidth <= 0:
		return fmt.Errorf("core: fetch width %d not positive", c.FetchWidth)
	case c.MaxUnresolved <= 0:
		return fmt.Errorf("core: speculation depth %d not positive", c.MaxUnresolved)
	case c.MissPenalty <= 0:
		return fmt.Errorf("core: miss penalty %d not positive", c.MissPenalty)
	case c.DecodeLatency <= 0:
		return fmt.Errorf("core: decode latency %d not positive", c.DecodeLatency)
	case c.ResolveLatency < c.DecodeLatency:
		return fmt.Errorf("core: resolve latency %d below decode latency %d",
			c.ResolveLatency, c.DecodeLatency)
	case c.MaxInsts < 0:
		return fmt.Errorf("core: negative instruction budget %d", c.MaxInsts)
	case c.StreamDepth < 0:
		return fmt.Errorf("core: negative stream depth %d", c.StreamDepth)
	case c.RASDepth < 0:
		return fmt.Errorf("core: negative RAS depth %d", c.RASDepth)
	case c.MSHRs < 0:
		return fmt.Errorf("core: negative MSHR count %d", c.MSHRs)
	case c.FlushInterval < 0:
		return fmt.Errorf("core: negative flush interval %d", c.FlushInterval)
	case c.SampleInterval < 0:
		return fmt.Errorf("core: negative sample interval %d", c.SampleInterval)
	case c.AdaptInterval < 0:
		return fmt.Errorf("core: negative adapt interval %d", c.AdaptInterval)
	case c.Policy == Adaptive && c.AdaptInterval == 0:
		return fmt.Errorf("core: adaptive policy requires a positive adapt interval")
	case c.Policy != Adaptive && c.Chooser != nil:
		return fmt.Errorf("core: chooser attached to non-adaptive policy %v", c.Policy)
	case c.StepMode < 0 || c.StepMode >= numStepModes:
		return fmt.Errorf("core: invalid step mode %d", int(c.StepMode))
	}
	if c.L2 != nil {
		if err := c.L2.Validate(); err != nil {
			return fmt.Errorf("core: L2: %w", err)
		}
		if c.L2.LineBytes != c.ICache.LineBytes {
			return fmt.Errorf("core: L2 line size %d differs from L1's %d", c.L2.LineBytes, c.ICache.LineBytes)
		}
		if c.L2Latency <= 0 || c.L2Latency > c.MissPenalty {
			return fmt.Errorf("core: L2 latency %d outside (0, miss penalty %d]", c.L2Latency, c.MissPenalty)
		}
	}
	return c.ICache.Validate()
}
