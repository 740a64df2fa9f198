// Package specfetch reproduces "Instruction Cache Fetch Policies for
// Speculative Execution" (Lee, Baer, Calder, Grunwald; ISCA 1995): a
// trace-driven, cycle-level model of a speculative superscalar fetch unit
// with five I-cache miss policies (Oracle, Optimistic, Resume, Pessimistic,
// Decode), a decoupled BTB + gshare-PHT branch architecture, next-line
// prefetching, and the paper's ISPI penalty accounting.
//
// Quick start:
//
//	bench, _ := specfetch.BuildBenchmark(specfetch.GCC())
//	cfg := specfetch.DefaultConfig()
//	cfg.Policy = specfetch.Resume
//	res, _ := specfetch.RunBenchmark(bench, cfg, 1_000_000, 1)
//	fmt.Printf("ISPI %.3f\n", res.TotalISPI())
//
// The package is a thin facade over the internal packages; everything
// needed to run simulations, generate synthetic workloads, read/write trace
// files, and regenerate the paper's tables and figures is exported here.
package specfetch

import (
	"io"

	"specfetch/internal/adaptive"
	"specfetch/internal/bpred"
	"specfetch/internal/cache"
	"specfetch/internal/classify"
	"specfetch/internal/core"
	"specfetch/internal/isa"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
	"specfetch/internal/program"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// Policy selects how I-cache misses on speculative paths are handled.
type Policy = core.Policy

// The five fetch policies of the paper's Table 1.
const (
	Oracle      = core.Oracle
	Optimistic  = core.Optimistic
	Resume      = core.Resume
	Pessimistic = core.Pessimistic
	Decode      = core.Decode
)

// Adaptive is the online meta-policy: the engine re-selects one of the five
// static policies at every AdaptInterval-instruction window boundary by
// consulting a Chooser. Config must carry a positive AdaptInterval and a
// Chooser (build one with NewChooser); see DESIGN.md §16.
const Adaptive = core.Adaptive

// Policies lists the five static policies in the paper's presentation
// order. The Adaptive meta-policy is deliberately excluded: it selects over
// this set rather than belonging to it.
func Policies() []Policy { return core.Policies() }

// ParsePolicy parses a policy name ("oracle", "optimistic", ...,
// "adaptive").
func ParsePolicy(s string) (Policy, error) { return core.ParsePolicy(s) }

// Chooser is the strategy interface behind the Adaptive meta-policy: First
// names the policy for the opening window, and Decide consumes each
// completed window's digest to name the policy for the next one. Choosers
// must be deterministic state machines (see internal/adaptive).
type Chooser = core.Chooser

// AdaptWindow is the per-window counter digest delivered to a Chooser at
// every Adaptive window boundary.
type AdaptWindow = core.AdaptWindow

// NewChooser builds an adaptive chooser strategy by name — one of
// ChooserStrategies: "phase:<period>" (plain "phase" is phase:6), the
// flush-phase chooser, or "pinned:<policy>", which always answers one
// static policy.
func NewChooser(strategy string) (Chooser, error) { return adaptive.New(strategy, 0) }

// ChooserStrategies lists the recognized adaptive strategy names.
func ChooserStrategies() []string { return adaptive.Names() }

// Config parameterizes one simulation run (machine widths, latencies,
// cache geometry, prefetching, instruction budget).
type Config = core.Config

// DefaultConfig is the paper's baseline machine: 4-wide fetch, depth-4
// speculation, 8K direct-mapped I-cache with 32-byte lines, 5-cycle miss
// penalty.
func DefaultConfig() Config { return core.DefaultConfig() }

// StepMode selects the engine's time-advance strategy: the next-event
// skip-ahead core (the zero value and default) or the cycle-by-cycle
// reference stepper. The two are bit-identical — same Result, same probe
// event stream — which the core differential suite proves; the reference
// stepper survives as the executable specification and a debugging aid.
type StepMode = core.StepMode

// The two engine cores, selected via Config.StepMode.
const (
	StepSkipAhead = core.StepSkipAhead
	StepReference = core.StepReference
)

// ParseStepMode parses a step-mode name ("skipahead", "reference").
func ParseStepMode(s string) (StepMode, error) { return core.ParseStepMode(s) }

// Arena is reusable per-run engine state: threading one arena through
// back-to-back runs (Config.Arena) makes the steady-state simulation loop
// allocation-free across cells. One arena must not serve two concurrent
// engines; reuse is behaviour-neutral, results are bit-identical either way.
type Arena = core.Arena

// NewArena returns an empty arena; the first run populates it.
func NewArena() *Arena { return core.NewArena() }

// Result reports one run's measurements: cycles, per-component lost issue
// slots, branch events, traffic, and miss counts.
type Result = core.Result

// CacheConfig sizes an instruction cache.
type CacheConfig = cache.Config

// Cycles counts simulated machine cycles; Slots counts instruction-issue
// opportunities (width per cycle). They are distinct defined types so cycle
// and slot quantities cannot be mixed without an explicit conversion — see
// metrics.Cycles and metrics.Slots for the helpers.
type (
	Cycles = metrics.Cycles
	Slots  = metrics.Slots
)

// Component labels one cause of lost issue slots (the stacking order of the
// paper's figures).
type Component = metrics.Component

// The penalty components of Figures 1-4.
const (
	BranchFull   = metrics.BranchFull
	Branch       = metrics.Branch
	ForceResolve = metrics.ForceResolve
	Bus          = metrics.Bus
	RTICache     = metrics.RTICache
	WrongICache  = metrics.WrongICache
)

// Components lists the penalty components in stacking order.
func Components() []Component { return metrics.Components() }

// Addr is a byte address in the simulated instruction space.
type Addr = isa.Addr

// Kind classifies an instruction for the branch architecture.
type Kind = isa.Kind

// Instruction kinds.
const (
	Plain        = isa.Plain
	CondBranch   = isa.CondBranch
	Jump         = isa.Jump
	Call         = isa.Call
	Return       = isa.Return
	IndirectJump = isa.IndirectJump
	IndirectCall = isa.IndirectCall
)

// Image is a static code image; the engine walks it on wrong paths.
type Image = program.Image

// ImageBuilder accumulates instructions for an Image.
type ImageBuilder = program.Builder

// Inst is one static instruction.
type Inst = program.Inst

// NewImageBuilder starts an image at the given base address.
func NewImageBuilder(base Addr) (*ImageBuilder, error) { return program.NewBuilder(base) }

// TraceRecord is one dynamic basic block of the correct execution path.
type TraceRecord = trace.Record

// TraceReader yields trace records until io.EOF.
type TraceReader = trace.Reader

// TraceWriter persists trace records.
type TraceWriter = trace.Writer

// NewSliceTrace replays an in-memory record slice.
func NewSliceTrace(recs []TraceRecord) *trace.SliceReader { return trace.NewSliceReader(recs) }

// Predictor is the branch-architecture interface the engine consumes.
type Predictor = bpred.Predictor

// NewPredictor builds the paper's baseline branch architecture: a 64-entry
// 4-way BTB plus a 512-entry gshare PHT, decoupled.
func NewPredictor() Predictor { return bpred.NewDefaultDecoupled() }

// Run simulates one configuration over an explicit image/trace/predictor.
func Run(cfg Config, img *Image, rd TraceReader, pred Predictor) (Result, error) {
	return core.Run(cfg, img, rd, pred)
}

// Probe is the engine instrumentation interface; attach one via
// Config.Probe (and Config.SampleInterval for time-series sampling). A nil
// probe costs one predictable branch per hook — effectively free.
type Probe = obs.Probe

// NopProbe implements every Probe callback as a no-op; embed it in custom
// collectors.
type NopProbe = obs.NopProbe

// Event is one recorded probe callback (EventRecorder's unit).
type Event = obs.Event

// EventRecorder is a bounded ring-buffer probe with JSONL export.
type EventRecorder = obs.EventRecorder

// NewEventRecorder builds a recorder keeping the last capacity events
// (obs.DefaultEventCapacity when capacity <= 0).
func NewEventRecorder(capacity int) *EventRecorder { return obs.NewEventRecorder(capacity) }

// SeriesPoint is one row of a run's exported time series (ISPI breakdown,
// IPC, miss rate, bus occupancy): a view over one WindowRecord.
type SeriesPoint = obs.SeriesPoint

// SeriesPoints derives the time-series rows from a window series.
func SeriesPoints(rs []WindowRecord) []SeriesPoint { return obs.SeriesPoints(rs) }

// WriteSeriesCSV writes a window series' time-series rows as CSV.
func WriteSeriesCSV(w io.Writer, rs []WindowRecord) error { return obs.WriteSeriesCSV(w, rs) }

// WriteSeriesJSON writes a window series' time-series rows as a JSON array.
func WriteSeriesJSON(w io.Writer, rs []WindowRecord) error { return obs.WriteSeriesJSON(w, rs) }

// WindowSeries captures one WindowRecord per sample interval — the one
// window store, behind the aligned per-policy interval analytics and the
// exported time series. It is sample-only: attached alone it keeps the
// skip-ahead engine's bulk path enabled.
type WindowSeries = obs.WindowSeries

// NewWindowSeries builds an empty window store; set Config.SampleInterval
// to choose the window width in instructions.
func NewWindowSeries() *WindowSeries { return obs.NewWindowSeries() }

// WindowRecord is one fixed-instruction-count window of a run in raw-int64
// wire form, with derived ISPI/miss/occupancy accessors.
type WindowRecord = obs.WindowRecord

// MultiProbe composes several probes into one; each callback fans out to
// every part in order.
func MultiProbe(ps ...Probe) Probe { return obs.Multi(ps...) }

// AuditError is a cycle-stamped accounting-invariant violation, which the
// runtime invariant auditor (obs.AuditProbe) panics with or returns.
type AuditError = obs.AuditError

// CombinedTrace is the full Perfetto trace bundle: machine events, interval
// counter tracks (per-window ISPI, miss rate, bus occupancy, stall
// components), host spans, and fleet processes; Write renders any subset
// into one file.
type CombinedTrace = obs.CombinedTrace

// RunWithProbe is Run with an attached probe and sampling interval — a
// convenience for callers that do not want to touch Config fields.
func RunWithProbe(cfg Config, img *Image, rd TraceReader, pred Predictor, p Probe, sampleEvery int64) (Result, error) {
	cfg.Probe = p
	cfg.SampleInterval = sampleEvery
	return core.Run(cfg, img, rd, pred)
}

// Profile parameterizes the synthetic workload generator.
type Profile = synth.Profile

// Bench is a generated synthetic benchmark: static image plus dynamic
// behaviour, able to produce correct-path traces.
type Bench = synth.Bench

// The 13 stock benchmark profiles, calibrated against the paper's Table 2/3.
var (
	Doduc   = synth.Doduc
	Fpppp   = synth.Fpppp
	Su2cor  = synth.Su2cor
	Ditroff = synth.Ditroff
	GCC     = synth.GCC
	Li      = synth.Li
	Tex     = synth.Tex
	Cfront  = synth.Cfront
	DBpp    = synth.DBpp
	Groff   = synth.Groff
	IDL     = synth.IDL
	Lic     = synth.Lic
	Porky   = synth.Porky
)

// Profiles returns the stock benchmark profiles in the paper's order.
func Profiles() []Profile { return synth.Profiles() }

// ProfileByName finds a stock profile by benchmark name.
func ProfileByName(name string) (Profile, bool) { return synth.ProfileByName(name) }

// BuildBenchmark deterministically generates the benchmark for a profile.
func BuildBenchmark(p Profile) (*Bench, error) { return synth.Build(p) }

// RunBenchmark simulates cfg over a synthetic benchmark for the given
// correct-path instruction budget, using a fresh baseline predictor. The
// stream seed selects the dynamic trace; reusing a seed replays the same
// trace. A budget that is not positive, or whose stream limit overflows, is
// an error.
func RunBenchmark(b *Bench, cfg Config, insts int64, streamSeed uint64) (Result, error) {
	limit, err := trace.BudgetLimit(insts)
	if err != nil {
		return Result{}, err
	}
	cfg.MaxInsts = insts
	return core.Run(cfg, b.Image(), b.NewReader(streamSeed, limit), NewPredictor())
}

// MissCategories is the paper's Table 4 classification of I-cache misses
// under speculative execution.
type MissCategories = classify.Categories

// ClassifyMisses runs Oracle and Optimistic over the same benchmark trace
// and partitions correct-path misses into Both Miss / Spec Pollute /
// Spec Prefetch / Wrong Path, plus the traffic ratio. The budget is checked
// as RunBenchmark checks it.
func ClassifyMisses(b *Bench, cfg Config, insts int64, streamSeed uint64) (MissCategories, error) {
	limit, err := trace.BudgetLimit(insts)
	if err != nil {
		return MissCategories{}, err
	}
	cfg.MaxInsts = insts
	return classify.Run(cfg, b.Image(),
		func() TraceReader { return b.NewReader(streamSeed, limit) },
		func() Predictor { return NewPredictor() })
}

// WriteImage serializes a static image in the portable text format.
func WriteImage(w io.Writer, img *Image) error { return program.WriteImage(w, img) }

// ReadImage parses a static image from the portable text format.
func ReadImage(r io.Reader) (*Image, error) { return program.ReadImage(r) }

// OpenTrace wraps r with the appropriate trace reader: gzip streams are
// transparently decompressed, the binary format is detected by its magic
// header, and anything else parses as the text format.
func OpenTrace(r io.Reader) (TraceReader, error) { return trace.OpenFile(r) }

// NewBinaryTraceWriter writes the compact binary trace format.
func NewBinaryTraceWriter(w io.Writer) *trace.BinaryWriter { return trace.NewBinaryWriter(w) }

// NewTextTraceWriter writes the line-oriented text trace format.
func NewTextTraceWriter(w io.Writer) *trace.TextWriter { return trace.NewTextWriter(w) }

// LoopKernel builds a microbenchmark: a single loop of bodyInsts plain
// instructions with geometric trip counts. Cache/branch behaviour is
// analytically known, for controlled policy studies.
func LoopKernel(bodyInsts int, trips float64) (*Bench, error) {
	return synth.LoopKernel(bodyInsts, trips)
}

// CallKernel builds a microbenchmark: a call chain of the given depth,
// isolating call/return prediction.
func CallKernel(depth, bodyInsts int) (*Bench, error) { return synth.CallKernel(depth, bodyInsts) }

// DispatchKernel builds a microbenchmark: an interpreter-style indirect
// dispatch loop over fanout handlers, isolating BTB target misprediction.
func DispatchKernel(fanout, handlerInsts int) (*Bench, error) {
	return synth.DispatchKernel(fanout, handlerInsts)
}
